"""TPC-W workload model.

TPC-W emulates an on-line bookstore.  The paper drives Tashkent+ with an
open-source implementation of TPC-W [ACC+02] and uses its three standard
mixes, which differ in the fraction of update transactions:

* browsing mix  -- about  5 % updates,
* shopping mix  -- about 20 % updates,
* ordering mix  -- about 50 % updates.

The database is scaled through the EBS parameter (emulated browsers): the
paper uses 100 EBS (0.7 GB, "SmallDB"), 300 EBS (1.8 GB, "MidDB") and
500 EBS (2.9 GB, "LargeDB").  Catalogue relations (items, authors,
countries) have a fixed cardinality of 10 000 items; customer and order
data grow linearly with EBS.

The fourteen interaction types and their table footprints below follow the
TPC-W specification closely enough that the working-set structure matches
the paper's observations: BestSellers and AdminConfirm are dominated by
scans over the order history; OrderDisplay touches nearly every table via
random accesses but scans only a tiny one (the Section 5.3 example of
lower/upper estimate divergence); the buy-path transactions
(ShoppingCart, BuyRequest, BuyConfirm) are the update workhorses of the
ordering mix.
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

# EBS value the base schema sizes below are calibrated for.
BASE_EBS = 300

# Relations whose size does not depend on EBS (catalogue data).
FIXED_RELATIONS = (
    "item", "item_pkey", "item_title_idx", "item_subject_idx",
    "author", "author_pkey", "country", "country_pkey",
)

# Short labels used by the paper for the three database sizes.
DATABASE_SIZES = {
    "SmallDB": 100,   # ~0.7 GB
    "MidDB": 300,     # ~1.8 GB
    "LargeDB": 500,   # ~2.9 GB
}

def make_schema(ebs: int = BASE_EBS) -> Schema:
    """Build the TPC-W schema scaled to ``ebs`` emulated browsers."""
    if ebs <= 0:
        raise ValueError("EBS must be positive, got %r" % (ebs,))
    base = Schema.from_relations(
        "tpcw-%dEBS" % BASE_EBS,
        [
            # Customer data (scales with EBS).
            table("customer", mb(330)),
            index("customer_pkey", "customer", mb(22)),
            index("customer_uname_idx", "customer", mb(26)),
            table("address", mb(225)),
            index("address_pkey", "address", mb(36)),
            # Order history (scales with EBS).
            table("orders", mb(185)),
            index("orders_pkey", "orders", mb(17)),
            index("orders_customer_idx", "orders", mb(17)),
            table("order_line", mb(450)),
            index("order_line_pkey", "order_line", mb(52)),
            table("cc_xacts", mb(110)),
            index("cc_xacts_pkey", "cc_xacts", mb(17)),
            # Shopping carts (scales with EBS).
            table("shopping_cart", mb(95)),
            index("shopping_cart_pkey", "shopping_cart", mb(11)),
            table("shopping_cart_line", mb(140)),
            index("shopping_cart_line_pkey", "shopping_cart_line", mb(19)),
            # Catalogue data (fixed: 10,000 items).
            table("item", mb(38)),
            index("item_pkey", "item", mb(2)),
            index("item_title_idx", "item", mb(3)),
            index("item_subject_idx", "item", mb(2)),
            table("author", mb(6)),
            index("author_pkey", "author", mb(1)),
            table("country", mb(1)),
            index("country_pkey", "country", mb(1)),
        ],
    )
    if ebs == BASE_EBS:
        return Schema.from_relations("tpcw-%dEBS" % ebs, list(base))
    factor = ebs / float(BASE_EBS)
    return base.scaled(factor, name="tpcw-%dEBS" % ebs, fixed=FIXED_RELATIONS)


def make_types() -> Dict[str, TransactionType]:
    """The fourteen TPC-W interaction types."""
    types = [
        # ------------------------------------------------------------------
        # Read-only (browsing) interactions.
        # ------------------------------------------------------------------
        transaction_type(
            "Home",
            reads=[lookup("customer", pages=4, selectivity=0.25), lookup("item", pages=6)],
            cpu_ms=8.0,
        ),
        transaction_type(
            "NewProducts",
            reads=[scan("item"), lookup("author", pages=3)],
            cpu_ms=14.0,
        ),
        transaction_type(
            "BestSellers",
            # Aggregation over the recent order history joined with items:
            # touches a few thousand order_line pages per execution via the
            # index, spread over the recent ~60% of the table, plus a scan
            # of the item catalogue.
            reads=[lookup("order_line", pages=500, selectivity=0.60), scan("item"),
                   lookup("author", pages=3)],
            cpu_ms=35.0,
        ),
        transaction_type(
            "ProductDetail",
            reads=[lookup("item", pages=4), lookup("author", pages=3)],
            cpu_ms=5.0,
        ),
        transaction_type(
            "SearchRequest",
            reads=[lookup("item", pages=4)],
            cpu_ms=4.0,
        ),
        transaction_type(
            "ExecSearch",
            # Search results: scan the item catalogue for title/author match.
            reads=[scan("item"), lookup("author", pages=4)],
            cpu_ms=18.0,
        ),
        transaction_type(
            "OrderInquiry",
            reads=[lookup("customer", pages=4, selectivity=0.25)],
            cpu_ms=4.0,
        ),
        transaction_type(
            "OrderDisplay",
            # Touches nearly every table via random accesses but scans only
            # the tiny country table: the Section 5.3 estimate-divergence
            # example (lower estimate ~1 MB, upper ~1.6 GB, true ~400 MB).
            reads=[
                lookup("orders", pages=3, selectivity=0.30),
                lookup("order_line", pages=8, selectivity=0.30),
                lookup("customer", pages=2, selectivity=0.30),
                lookup("cc_xacts", pages=2, selectivity=0.30),
                lookup("address", pages=3, selectivity=0.30),
                lookup("item", pages=6),
                scan("country"),
            ],
            cpu_ms=12.0,
        ),
        transaction_type(
            "AdminRequest",
            reads=[lookup("item", pages=2), lookup("author", pages=2)],
            cpu_ms=4.0,
        ),
        # ------------------------------------------------------------------
        # Update interactions.
        # ------------------------------------------------------------------
        transaction_type(
            "ShoppingCart",
            reads=[lookup("shopping_cart", pages=4, selectivity=0.5),
                   lookup("shopping_cart_line", pages=5, selectivity=0.5),
                   lookup("item", pages=5)],
            writes=[write("shopping_cart", rows=1, pages_dirtied=1),
                    write("shopping_cart_line", rows=2, pages_dirtied=1)],
            cpu_ms=9.0,
        ),
        transaction_type(
            "CustomerRegistration",
            reads=[lookup("customer", pages=5, selectivity=0.25), lookup("country", pages=1)],
            writes=[write("customer", rows=1, pages_dirtied=1),
                    write("address", rows=1, pages_dirtied=1)],
            cpu_ms=7.0,
        ),
        transaction_type(
            "BuyRequest",
            reads=[lookup("customer", pages=4, selectivity=0.25),
                   lookup("address", pages=3, selectivity=0.25),
                   lookup("shopping_cart", pages=4, selectivity=0.5),
                   lookup("shopping_cart_line", pages=5, selectivity=0.5),
                   lookup("item", pages=4)],
            writes=[write("shopping_cart", rows=1, pages_dirtied=1)],
            cpu_ms=9.0,
        ),
        transaction_type(
            "BuyConfirm",
            reads=[lookup("customer", pages=4, selectivity=0.25),
                   lookup("address", pages=3, selectivity=0.25),
                   lookup("shopping_cart", pages=4, selectivity=0.5),
                   lookup("shopping_cart_line", pages=5, selectivity=0.5),
                   lookup("item", pages=5), lookup("orders", pages=2, selectivity=0.35)],
            writes=[write("orders", rows=1, pages_dirtied=1),
                    write("order_line", rows=3, pages_dirtied=2),
                    write("cc_xacts", rows=1, pages_dirtied=1),
                    write("shopping_cart", rows=1, pages_dirtied=1)],
            cpu_ms=14.0,
        ),
        transaction_type(
            "AdminConfirm",
            # Admin response: recompute related items from the recent order
            # history, then update the item record.
            reads=[lookup("order_line", pages=300, selectivity=0.45),
                   lookup("item", pages=3)],
            writes=[write("item", rows=1, pages_dirtied=1)],
            cpu_ms=25.0,
        ),
    ]
    return {t.name: t for t in types}


def make_mixes() -> Dict[str, Mix]:
    """The three TPC-W mixes (weights follow the TPC-W web-interaction mix).

    Update fractions come out at roughly 5 % (browsing), 20 % (shopping)
    and 50 % (ordering), matching Section 4.4 of the paper.
    """
    browsing = Mix(
        "browsing",
        {
            "Home": 29.00, "NewProducts": 11.00, "BestSellers": 11.00,
            "ProductDetail": 21.00, "SearchRequest": 12.00, "ExecSearch": 11.00,
            "ShoppingCart": 2.00, "CustomerRegistration": 0.82, "BuyRequest": 0.75,
            "BuyConfirm": 0.69, "OrderInquiry": 0.30, "OrderDisplay": 0.25,
            "AdminRequest": 0.10, "AdminConfirm": 0.09,
        },
    )
    shopping = Mix(
        "shopping",
        {
            "Home": 16.00, "NewProducts": 5.00, "BestSellers": 5.00,
            "ProductDetail": 17.00, "SearchRequest": 20.00, "ExecSearch": 17.00,
            "ShoppingCart": 11.60, "CustomerRegistration": 3.00, "BuyRequest": 2.60,
            "BuyConfirm": 1.20, "OrderInquiry": 0.75, "OrderDisplay": 0.66,
            "AdminRequest": 0.10, "AdminConfirm": 0.09,
        },
    )
    ordering = Mix(
        "ordering",
        {
            "Home": 9.12, "NewProducts": 0.46, "BestSellers": 0.46,
            "ProductDetail": 12.35, "SearchRequest": 14.53, "ExecSearch": 13.08,
            "ShoppingCart": 13.53, "CustomerRegistration": 12.86, "BuyRequest": 12.73,
            "BuyConfirm": 10.18, "OrderInquiry": 0.25, "OrderDisplay": 0.22,
            "AdminRequest": 0.12, "AdminConfirm": 0.11,
        },
    )
    return {"browsing": browsing, "shopping": shopping, "ordering": ordering}


def make_tpcw(ebs: int = BASE_EBS) -> WorkloadSpec:
    """Build the complete TPC-W workload spec at a given EBS scale."""
    return WorkloadSpec(
        name="tpcw-%dEBS" % ebs,
        schema=make_schema(ebs),
        types=make_types(),
        mixes=make_mixes(),
    )
