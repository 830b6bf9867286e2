"""RUBiS workload model.

RUBiS emulates an on-line auction site modelled after eBay.  The paper's
configuration (Section 4.4): 10 000 active items, 1 M users, 500 000 old
items, a 2.2 GB database, a read-only *browsing* mix and a *bidding* mix
with 15 % updates.  The paper adds primary-key indices and transactions to
the original benchmark; the average writeset size is 272 bytes.

The seventeen interaction types below are the ones listed in Table 4 of the
paper.  The one that matters most for load balancing is AboutMe: "a large,
frequent transaction that reads from almost all the tables in the database"
(Section 5.2) -- it ends up with 9 of the 16 replicas in the paper's run.
"""

from __future__ import annotations

from typing import Dict

from repro.storage.pages import mb
from repro.storage.relation import Schema, index, table
from repro.workloads.spec import (
    Mix,
    TransactionType,
    WorkloadSpec,
    lookup,
    scan,
    transaction_type,
    write,
)

DATABASE_LABEL = "rubis-2.2GB"


def make_schema() -> Schema:
    """The 2.2 GB RUBiS database (1 M users, 10 k active / 500 k old items)."""
    return Schema.from_relations(
        DATABASE_LABEL,
        [
            table("users", mb(380)),
            index("users_pkey", "users", mb(40)),
            index("users_nickname_idx", "users", mb(45)),
            table("items", mb(9)),
            index("items_pkey", "items", mb(1)),
            index("items_category_idx", "items", mb(1)),
            index("items_seller_idx", "items", mb(1)),
            table("old_items", mb(390)),
            index("old_items_pkey", "old_items", mb(28)),
            index("old_items_seller_idx", "old_items", mb(28)),
            table("bids", mb(620)),
            index("bids_pkey", "bids", mb(62)),
            index("bids_item_idx", "bids", mb(62)),
            index("bids_user_idx", "bids", mb(62)),
            table("comments", mb(290)),
            index("comments_pkey", "comments", mb(22)),
            index("comments_to_user_idx", "comments", mb(22)),
            table("buy_now", mb(70)),
            index("buy_now_pkey", "buy_now", mb(8)),
            table("categories", mb(1)),
            index("categories_pkey", "categories", mb(1)),
            table("regions", mb(1)),
            index("regions_pkey", "regions", mb(1)),
        ],
    )


def make_types() -> Dict[str, TransactionType]:
    """The seventeen RUBiS interaction types of Table 4."""
    types = [
        # ------------------------------------------------------------------
        # Read-only interactions.
        # ------------------------------------------------------------------
        transaction_type(
            "AboutMe",
            # The user's full history: bids placed, items sold (old and
            # current), comments received, buy-now purchases.  Random access
            # across almost every table, covering large hot sets in
            # aggregate.
            reads=[
                lookup("users", pages=3, selectivity=0.55),
                lookup("bids", pages=14, selectivity=0.60),
                lookup("items", pages=4),
                lookup("old_items", pages=10, selectivity=0.55),
                lookup("comments", pages=6, selectivity=0.55),
                lookup("buy_now", pages=3, selectivity=0.60),
            ],
            cpu_ms=26.0,
        ),
        transaction_type(
            "Auth",
            reads=[lookup("users", pages=2, selectivity=0.20)],
            cpu_ms=3.0,
        ),
        transaction_type(
            "BrowseCategories",
            reads=[scan("categories")],
            cpu_ms=3.0,
        ),
        transaction_type(
            "BrowseRegions",
            reads=[scan("regions"), scan("categories")],
            cpu_ms=3.0,
        ),
        transaction_type(
            "SearchItemsByCategory",
            reads=[scan("items"), lookup("bids", pages=6, selectivity=0.08),
                   lookup("users", pages=2, selectivity=0.10)],
            cpu_ms=12.0,
        ),
        transaction_type(
            "SearchItemsByRegion",
            reads=[scan("items"), scan("regions"),
                   lookup("users", pages=4, selectivity=0.25),
                   lookup("bids", pages=4, selectivity=0.08)],
            cpu_ms=14.0,
        ),
        transaction_type(
            "ViewItem",
            reads=[lookup("items", pages=2), lookup("bids", pages=5, selectivity=0.10),
                   lookup("users", pages=2, selectivity=0.15)],
            cpu_ms=6.0,
        ),
        transaction_type(
            "ViewUserInfo",
            reads=[lookup("users", pages=2, selectivity=0.45),
                   lookup("comments", pages=6, selectivity=0.50)],
            cpu_ms=6.0,
        ),
        transaction_type(
            "ViewBidHistory",
            reads=[lookup("items", pages=2), lookup("bids", pages=10, selectivity=0.35),
                   lookup("users", pages=3, selectivity=0.35)],
            cpu_ms=8.0,
        ),
        transaction_type(
            "BuyNow",
            reads=[lookup("items", pages=2), lookup("buy_now", pages=2, selectivity=0.40),
                   lookup("users", pages=2, selectivity=0.15)],
            cpu_ms=5.0,
        ),
        transaction_type(
            "PutBid",
            reads=[lookup("items", pages=2), lookup("bids", pages=6, selectivity=0.30),
                   lookup("users", pages=2, selectivity=0.30)],
            cpu_ms=6.0,
        ),
        transaction_type(
            "PutComment",
            reads=[lookup("users", pages=2, selectivity=0.20), lookup("items", pages=2)],
            cpu_ms=4.0,
        ),
        # ------------------------------------------------------------------
        # Update interactions.
        # ------------------------------------------------------------------
        transaction_type(
            "RegisterUser",
            reads=[lookup("users", pages=2, selectivity=0.20), scan("regions")],
            writes=[write("users", rows=1, pages_dirtied=1)],
            cpu_ms=5.0,
        ),
        transaction_type(
            "RegisterItem",
            reads=[lookup("users", pages=2, selectivity=0.15), scan("categories")],
            writes=[write("items", rows=1, pages_dirtied=1)],
            cpu_ms=6.0,
        ),
        transaction_type(
            "StoreBid",
            reads=[lookup("items", pages=2), lookup("bids", pages=4, selectivity=0.25),
                   lookup("users", pages=2, selectivity=0.25)],
            writes=[write("bids", rows=1, pages_dirtied=1),
                    write("items", rows=1, pages_dirtied=1)],
            cpu_ms=7.0,
        ),
        transaction_type(
            "StoreComment",
            reads=[lookup("users", pages=2, selectivity=0.35), lookup("items", pages=2),
                   lookup("comments", pages=3, selectivity=0.40)],
            writes=[write("comments", rows=1, pages_dirtied=1),
                    write("users", rows=1, pages_dirtied=1)],
            cpu_ms=6.0,
        ),
        transaction_type(
            "StoreBuyNow",
            reads=[lookup("items", pages=2), lookup("buy_now", pages=2, selectivity=0.40),
                   lookup("users", pages=2, selectivity=0.15)],
            writes=[write("buy_now", rows=1, pages_dirtied=1),
                    write("items", rows=1, pages_dirtied=1)],
            cpu_ms=6.0,
        ),
    ]
    return {t.name: t for t in types}


def make_mixes() -> Dict[str, Mix]:
    """The RUBiS browsing (read-only) and bidding (~15 % updates) mixes."""
    browsing = Mix(
        "browsing",
        {
            "AboutMe": 4.0, "Auth": 4.0, "BrowseCategories": 11.0, "BrowseRegions": 6.0,
            "SearchItemsByCategory": 27.0, "SearchItemsByRegion": 8.0, "ViewItem": 25.0,
            "ViewUserInfo": 7.0, "ViewBidHistory": 5.0, "BuyNow": 1.5,
            "PutBid": 1.0, "PutComment": 0.5,
        },
    )
    bidding = Mix(
        "bidding",
        {
            "AboutMe": 7.5, "Auth": 4.5, "BrowseCategories": 7.0, "BrowseRegions": 3.0,
            "SearchItemsByCategory": 18.0, "SearchItemsByRegion": 5.5, "ViewItem": 17.0,
            "ViewUserInfo": 5.0, "ViewBidHistory": 4.5, "BuyNow": 2.0,
            "PutBid": 7.0, "PutComment": 1.5,
            # Updates: ~15 % of the mix.
            "StoreBid": 9.0, "StoreComment": 2.0, "RegisterItem": 1.5,
            "RegisterUser": 3.5, "StoreBuyNow": 1.5,
        },
    )
    return {"browsing": browsing, "bidding": bidding}


def make_rubis() -> WorkloadSpec:
    """Build the complete RUBiS workload spec."""
    return WorkloadSpec(
        name=DATABASE_LABEL,
        schema=make_schema(),
        types=make_types(),
        mixes=make_mixes(),
    )
