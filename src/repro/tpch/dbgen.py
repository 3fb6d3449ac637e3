"""A deterministic port of the TPC-H ``dbgen`` data generator.

The generator follows the specification's structural rules — sparse
orderkeys (8 of every 32), the partsupp supplier-assignment formula, the
retail-price polynomial, date windows around CURRENTDATE = 1995-06-17 — while
simplifying the text grammar to a seeded word-salad that preserves the
selectivity hooks the queries grep for (``%green%``, ``%special%requests%``,
``%Customer%Complaints%``).

Section 3.3.1 of the paper notes that stock dbgen's 32-bit RANDOM overflows
at SF 16000; like the authors we generate keys with a 64-bit generator
(:class:`~repro.common.rng.TpchRandom64`), and
:func:`demonstrate_random_overflow` reproduces the original bug for tests.
Each table draws its stream through :func:`~repro.common.rng.raw_draws`, a
block at a time, and reduces every draw the way ``TpchRandom64`` does:
``low + raw() % span`` for ``random_int(low, high)`` and
``seq[raw() % len(seq)]`` for ``choice(seq)``.
"""

from __future__ import annotations

from datetime import date, timedelta

from repro.common.rng import SeedStream, TpchRandom, raw_draws
from repro.relational.schema import Database, TableData
from repro.tpch import text
from repro.tpch.schema import SCHEMAS, row_count, sparse_orderkey

START_DATE = "1992-01-01"
CURRENT_DATE = "1995-06-17"
END_DATE = "1998-12-01"

_BASE = date(1992, 1, 1)
_TOTAL_DAYS = (date(1998, 12, 1) - _BASE).days
# o_orderdate is drawn on [STARTDATE, ENDDATE - 151 days].
_MAX_ORDERDATE_OFFSET = _TOTAL_DAYS - 151

# Precomputed ISO strings for every day offset used anywhere in generation.
_DATES: list[str] = [
    (_BASE + timedelta(days=off)).isoformat() for off in range(_TOTAL_DAYS + 152)
]

_ALNUM = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,"


def retail_price(partkey: int) -> float:
    """The spec's deterministic p_retailprice polynomial."""
    return (90000 + ((partkey // 10) % 20001) + 100 * (partkey % 1000)) / 100.0


def partsupp_suppkey(partkey: int, slot: int, supplier_count: int) -> int:
    """Supplier for a (part, slot) pair — the spec's interleaving formula.

    Every part has 4 supplier slots; the formula spreads them so each
    supplier serves roughly ``4 * parts / suppliers`` parts.
    """
    s = supplier_count
    return (partkey + slot * (s // 4 + (partkey - 1) // s)) % s + 1


class DbGen:
    """Generates a TPC-H database at an arbitrary (fractional) scale factor."""

    def __init__(self, scale_factor: float, seed: int = 19620718):
        if scale_factor <= 0:
            raise ValueError("scale factor must be positive")
        self.scale_factor = scale_factor
        self.seeds = SeedStream(seed)
        self.customers = row_count("customer", scale_factor)
        self.orders = row_count("orders", scale_factor)
        if self.orders and not self.customers:
            raise ValueError(
                f"scale factor {scale_factor} places orders but has no customers")
        self.parts = row_count("part", scale_factor)
        self.suppliers = max(4, row_count("supplier", scale_factor))

    # -- text helpers ---------------------------------------------------------

    def _words(self, raw, low: int, high: int) -> str:
        words = text.COMMENT_WORDS
        n = len(words)
        return " ".join([words[raw() % n] for _ in range(low + raw() % (high - low + 1))])

    def _address(self, raw) -> str:
        n = len(_ALNUM)
        return "".join([_ALNUM[raw() % n] for _ in range(10 + raw() % 31)]).strip()

    def _phone(self, raw, nationkey: int) -> str:
        return (
            f"{nationkey + 10:02d}-{100 + raw() % 900}"
            f"-{100 + raw() % 900}-{1000 + raw() % 9000}"
        )

    # -- fixed tables ----------------------------------------------------------

    def gen_region(self) -> TableData:
        raw = raw_draws(self.seeds.seed_for("region")).__next__
        table = TableData("region", SCHEMAS["region"])
        for key, name in enumerate(text.REGIONS):
            table.append(
                {"r_regionkey": key, "r_name": name, "r_comment": self._words(raw, 3, 8)}
            )
        return table

    def gen_nation(self) -> TableData:
        raw = raw_draws(self.seeds.seed_for("nation")).__next__
        table = TableData("nation", SCHEMAS["nation"])
        for key, (name, regionkey) in enumerate(text.NATIONS):
            table.append(
                {
                    "n_nationkey": key,
                    "n_name": name,
                    "n_regionkey": regionkey,
                    "n_comment": self._words(raw, 3, 8),
                }
            )
        return table

    # -- scaling tables ----------------------------------------------------------

    def gen_supplier(self) -> TableData:
        raw = raw_draws(self.seeds.seed_for("supplier")).__next__
        table = TableData("supplier", SCHEMAS["supplier"])
        suppliers = self.suppliers
        # The spec plants 5 "Customer ... Complaints" and 5 "Customer ...
        # Recommends" comments per 10,000 suppliers; at fractional scale we
        # keep at least one of each so Q16's anti-join stays exercised.
        planted = max(1, round(suppliers * 5 / 10_000))
        complain = set()
        recommend = set()
        while len(complain) < planted:
            complain.add(1 + raw() % suppliers)
        while len(recommend) < planted:
            candidate = 1 + raw() % suppliers
            if candidate not in complain:
                recommend.add(candidate)
        for key in range(1, suppliers + 1):
            nationkey = raw() % 25
            comment = self._words(raw, 5, 10)
            if key in complain:
                comment = f"{comment} Customer wishes Complaints {comment[:10]}"
            elif key in recommend:
                comment = f"{comment} Customer truly Recommends {comment[:10]}"
            table.append(
                {
                    "s_suppkey": key,
                    "s_name": f"Supplier#{key:09d}",
                    "s_address": self._address(raw),
                    "s_nationkey": nationkey,
                    "s_phone": self._phone(raw, nationkey),
                    "s_acctbal": (-99999 + raw() % 1_099_999) / 100.0,
                    "s_comment": comment,
                }
            )
        return table

    def gen_customer(self) -> TableData:
        raw = raw_draws(self.seeds.seed_for("customer")).__next__
        table = TableData("customer", SCHEMAS["customer"])
        segments = text.SEGMENTS
        for key in range(1, self.customers + 1):
            nationkey = raw() % 25
            table.append(
                {
                    "c_custkey": key,
                    "c_name": f"Customer#{key:09d}",
                    "c_address": self._address(raw),
                    "c_nationkey": nationkey,
                    "c_phone": self._phone(raw, nationkey),
                    "c_acctbal": (-99999 + raw() % 1_099_999) / 100.0,
                    "c_mktsegment": segments[raw() % len(segments)],
                    "c_comment": self._words(raw, 6, 12),
                }
            )
        return table

    def gen_part(self) -> TableData:
        raw = raw_draws(self.seeds.seed_for("part")).__next__
        table = TableData("part", SCHEMAS["part"])
        name_words = text.P_NAME_WORDS
        types = text.all_part_types()
        containers = text.all_containers()
        for key in range(1, self.parts + 1):
            words = []
            while len(words) < 5:
                word = name_words[raw() % len(name_words)]
                if word not in words:
                    words.append(word)
            mfgr = 1 + raw() % 5
            table.append(
                {
                    "p_partkey": key,
                    "p_name": " ".join(words),
                    "p_mfgr": f"Manufacturer#{mfgr}",
                    "p_brand": f"Brand#{mfgr}{1 + raw() % 5}",
                    "p_type": types[raw() % len(types)],
                    "p_size": 1 + raw() % 50,
                    "p_container": containers[raw() % len(containers)],
                    "p_retailprice": retail_price(key),
                    "p_comment": self._words(raw, 2, 5),
                }
            )
        return table

    def gen_partsupp(self) -> TableData:
        raw = raw_draws(self.seeds.seed_for("partsupp")).__next__
        table = TableData("partsupp", SCHEMAS["partsupp"])
        for partkey in range(1, self.parts + 1):
            for slot in range(4):
                table.append(
                    {
                        "ps_partkey": partkey,
                        "ps_suppkey": partsupp_suppkey(partkey, slot, self.suppliers),
                        "ps_availqty": 1 + raw() % 9999,
                        "ps_supplycost": (100 + raw() % 99_901) / 100.0,
                        "ps_comment": self._words(raw, 10, 20),
                    }
                )
        return table

    def gen_orders_and_lineitem(self) -> tuple[TableData, TableData]:
        """Orders and lineitem are generated together (shared dates/status)."""
        raw = raw_draws(self.seeds.seed_for("orders")).__next__
        orders = TableData("orders", SCHEMAS["orders"])
        lineitem = TableData("lineitem", SCHEMAS["lineitem"])
        customers = self.customers
        parts = self.parts
        suppliers = self.suppliers
        clerks = max(1, int(1000 * self.scale_factor))
        instructions = text.INSTRUCTIONS
        modes = text.MODES
        priorities = text.PRIORITIES
        for index in range(1, self.orders + 1):
            orderkey = sparse_orderkey(index)
            # Only customers with custkey not divisible by 3 place orders.
            while True:
                custkey = 1 + raw() % customers
                if custkey % 3 != 0:
                    break
            date_offset = raw() % (_MAX_ORDERDATE_OFFSET + 1)
            orderdate = _DATES[date_offset]

            total = 0.0
            statuses = []
            line_count = 1 + raw() % 7
            for linenumber in range(1, line_count + 1):
                partkey = 1 + raw() % parts
                suppkey = partsupp_suppkey(partkey, raw() % 4, suppliers)
                quantity = float(1 + raw() % 50)
                extended = quantity * retail_price(partkey)
                discount = raw() % 11 / 100.0
                tax = raw() % 9 / 100.0
                ship_offset = date_offset + 1 + raw() % 121
                commit_offset = date_offset + 30 + raw() % 61
                receipt_offset = ship_offset + 1 + raw() % 30
                shipdate = _DATES[ship_offset]
                receiptdate = _DATES[receipt_offset]
                if receiptdate <= CURRENT_DATE:
                    returnflag = "R" if raw() % 2 else "A"
                else:
                    returnflag = "N"
                linestatus = "O" if shipdate > CURRENT_DATE else "F"
                statuses.append(linestatus)
                total += extended * (1.0 + tax) * (1.0 - discount)
                comment = self._words(raw, 2, 6)
                lineitem.append(
                    {
                        "l_orderkey": orderkey,
                        "l_partkey": partkey,
                        "l_suppkey": suppkey,
                        "l_linenumber": linenumber,
                        "l_quantity": quantity,
                        "l_extendedprice": extended,
                        "l_discount": discount,
                        "l_tax": tax,
                        "l_returnflag": returnflag,
                        "l_linestatus": linestatus,
                        "l_shipdate": shipdate,
                        "l_commitdate": _DATES[commit_offset],
                        "l_receiptdate": receiptdate,
                        "l_shipinstruct": instructions[raw() % len(instructions)],
                        "l_shipmode": modes[raw() % len(modes)],
                        "l_comment": comment,
                    }
                )

            if all(s == "F" for s in statuses):
                orderstatus = "F"
            elif all(s == "O" for s in statuses):
                orderstatus = "O"
            else:
                orderstatus = "P"
            comment = self._words(raw, 4, 10)
            # Plant the Q13 needle at the spec's ~5% effective rate.
            if 1 + raw() % 100 <= 5:
                comment = f"{comment} special handling requests {comment[:8]}"
            orders.append(
                {
                    "o_orderkey": orderkey,
                    "o_custkey": custkey,
                    "o_orderstatus": orderstatus,
                    "o_totalprice": round(total, 2),
                    "o_orderdate": orderdate,
                    "o_orderpriority": priorities[raw() % len(priorities)],
                    "o_clerk": f"Clerk#{1 + raw() % clerks:09d}",
                    "o_shippriority": 0,
                    "o_comment": comment,
                }
            )
        return orders, lineitem

    def generate(self) -> Database:
        """Generate the full eight-table database."""
        db = Database()
        db.add(self.gen_region())
        db.add(self.gen_nation())
        db.add(self.gen_supplier())
        db.add(self.gen_customer())
        db.add(self.gen_part())
        db.add(self.gen_partsupp())
        orders, lineitem = self.gen_orders_and_lineitem()
        db.add(orders)
        db.add(lineitem)
        return db


def demonstrate_random_overflow(scale_factor: int, samples: int = 2000) -> list[int]:
    """Reproduce the paper's dbgen bug: partkeys drawn with 32-bit RANDOM.

    Returns the sampled keys; at SF 16000 some are negative (the overflow the
    authors fixed by switching to RANDOM64).
    """
    rng = TpchRandom(seed=902)
    high = scale_factor * 200_000
    return [rng.random_int(1, high) for _ in range(samples)]
