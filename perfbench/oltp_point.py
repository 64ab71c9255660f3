"""``oltp_point``: read-only point statements on compiled-state hits and
misses.

Org at 200 departments plus OO1 (3000 parts, fanout 3) in one in-memory
engine.  One thread drives two sessions, alternating per statement, in
a closed loop.  Three kinds of statement take turns:

* ad-hoc literal point lookups, Zipf-drawn over 200 statement shapes
  with YCSB's skew (s = 0.99; Cooper et al., "Benchmarking cloud
  serving systems with YCSB", SoCC 2010).  Each shape is cached under
  an AST key and a canonical-form key, so the shapes need more keys
  than the default 256-slot plan cache holds.  Measured here, about 4%
  of the ad-hoc lookups miss and compile, for any skew from uniform
  (s=0) to s=1, so their p99 is a compile;
* ``prepare()``d point lookups;
* OO1 one-hop navigation joins through a cursor.

Each kind is measured on its own and the end-to-end metrics are the
geometric mean over the kinds (see :class:`common.Workload`), so no
traffic share is assumed.

Parse, literal lifting, the plan-cache probe, latching and point access
do the work; XNF, the view lens and the WAL do none.  No index is added
beyond the schema's own, so a PRIMARY KEY lookup scans its table.
"""

from __future__ import annotations

import itertools
import random

from repro import Engine
from repro.workloads.oo1 import create_oo1_schema, populate_oo1
from repro.workloads.orgdb import create_org_schema, populate_org

from common import Phase, Workload, Zipf, oo1_scale, org_scale, sqlite_copy

#: table -> (primary key, columns)
PK_TABLES = {
    "DEPT": ("DNO", ("DNO", "DNAME", "LOC")),
    "EMP": ("ENO", ("ENO", "ENAME", "EDNO", "SAL")),
    "PROJ": ("PNO", ("PNO", "PNAME", "PDNO", "BUDGET")),
    "SKILLS": ("SNO", ("SNO", "SNAME", "LEVEL")),
    "PART": ("ID", ("ID", "PTYPE", "X", "Y", "BUILD")),
}
#: table -> (indexed column, columns): lookups with an access path.
SECONDARY = {
    "EMP": ("EDNO", ("ENO", "ENAME", "EDNO", "SAL")),
    "PROJ": ("PDNO", ("PNO", "PNAME", "PDNO", "BUDGET")),
    "EMPSKILLS": ("ESENO", ("ESENO", "ESSNO")),
    "PROJSKILLS": ("PSPNO", ("PSPNO", "PSSNO")),
    "CONNECTION": ("FROM_ID", ("FROM_ID", "TO_ID", "CTYPE", "LENGTH")),
}
SHAPES = 200
PREPARED = (
    ("SELECT ENAME, SAL FROM EMP WHERE ENO = ?", "EMP", "ENO"),
    ("SELECT PTYPE, X, Y FROM PART WHERE ID = ?", "PART", "ID"),
    ("SELECT PNAME, BUDGET FROM PROJ WHERE PNO = ?", "PROJ", "PNO"),
    ("SELECT DNAME, LOC FROM DEPT WHERE DNO = ?", "DEPT", "DNO"),
)
NAV_SQL = ("SELECT p.ID, p.PTYPE, p.X, p.Y FROM CONNECTION c, PART p "
           "WHERE c.FROM_ID = ? AND c.TO_ID = p.ID")
TABLES = ("DEPT", "EMP", "PROJ", "SKILLS", "EMPSKILLS", "PROJSKILLS",
          "PART", "CONNECTION")
#: Zipf exponent of the ad-hoc shape draw (see the module docstring).
ZIPF_S = 0.99
KINDS = ("adhoc", "prepared", "nav")
WARM_OPS = 1000
#: every VERIFY_EVERY-th statement's result is checked against sqlite3
VERIFY_EVERY = 8


def statement_shapes() -> list[tuple]:
    """200 ad-hoc point-lookup shapes, ``(table, projection, predicate
    template, key column)``, no two with the same canonical form: every
    column subset of each table's PK lookup, as ``pk = k`` and as the
    one-value range ``pk >= k AND pk <= k`` (150), and column subsets of
    the indexed lookups (50 of 51).

    The list is in Zipf rank order, dealt round-robin from the ten
    (table, access) groups, so the hot head covers every table the same
    way whatever the seed."""
    def subsets(columns):
        return [projection for width in range(1, len(columns) + 1)
                for projection in itertools.combinations(columns, width)]

    groups = []
    for table, (key, columns) in PK_TABLES.items():
        groups.append([(table, projection, f"{key} = {{k}}", key)
                       for projection in subsets(columns)]
                      + [(table, projection,
                          f"{key} >= {{k}} AND {key} <= {{k}}", key)
                         for projection in subsets(columns)])
    for table, (key, columns) in SECONDARY.items():
        groups.append([(table, projection, f"{key} = {{k}}", key)
                       for projection in subsets(columns)])
    dealt = [shape for rank in itertools.zip_longest(*groups)
             for shape in rank if shape is not None]
    return dealt[:SHAPES]


class OltpPoint(Workload):
    name = "oltp_point"
    #: operation kinds; ad-hoc labels add the table and key column
    groups = KINDS
    names = (("lookup_p50_us", "op_p50_us", "us", 1.0),
             ("lookup_p99_us", "op_tail_us", "us", 1.0),
             ("lookup_ops_s", "ops_s", "1/s", 1.0))

    def __init__(self, seed: int):
        self.seed = seed
        self.checked: list[tuple] = []

    # ------------------------------------------------------------------
    def setup(self) -> None:
        self.close()
        engine = self.engine = Engine()
        create_org_schema(engine.catalog, with_indexes=True)
        populate_org(engine.catalog, org_scale(self.seed))
        create_oo1_schema(engine.catalog, with_indexes=True)
        populate_oo1(engine.catalog, oo1_scale(self.seed))
        self.key_max = {}
        for table_name in TABLES:
            table = engine.catalog.table(table_name)
            for position, column in enumerate(table.columns):
                values = [row[position] for row in table.rows()]
                if isinstance(values[0], int):
                    self.key_max[(table_name, column.name)] = max(values)
        self.sessions = [engine.connect(label=f"oltp-{n}")
                         for n in range(2)]
        self.prepared = [[session.prepare(sql) for sql, _t, _c in PREPARED]
                         for session in self.sessions]
        self.cursors = [session.cursor() for session in self.sessions]
        rng = random.Random(self.seed)
        self.shapes = statement_shapes()
        self.zipf = Zipf(len(self.shapes), ZIPF_S, rng)
        self.rng = rng
        self.turn = 0
        self.checked = []
        warm = Phase()
        for _ in range(WARM_OPS):
            self.step(warm, record=False)

    # ------------------------------------------------------------------
    def _key(self, table: str, column: str) -> int:
        return self.rng.randint(1, self.key_max[(table, column)])

    def step(self, phase: Phase, record: bool = True) -> None:
        rng = self.rng
        which, kind = self.turn % 2, KINDS[self.turn % len(KINDS)]
        self.turn += 1
        if kind == "adhoc":
            table, projection, predicate, column = \
                self.shapes[self.zipf.draw()]
            where = predicate.format(k=self._key(table, column))
            sql = f"SELECT {', '.join(projection)} FROM {table} WHERE {where}"
            params = ()
            label = f"adhoc:{table}.{column}"
            session = self.sessions[which]
            thunk = lambda: session.query(sql).rows  # noqa: E731
        elif kind == "prepared":
            number = rng.randrange(len(PREPARED))
            sql, table, column = PREPARED[number]
            params = (self._key(table, column),)
            label = "prepared"
            statement = self.prepared[which][number]
            thunk = lambda: statement.run(list(params)).rows  # noqa: E731
        else:
            sql = NAV_SQL
            params = (self._key("PART", "ID"),)
            label = "nav"
            cursor = self.cursors[which]
            thunk = lambda: cursor.execute(  # noqa: E731
                sql, list(params)).fetchall()
        ok, rows = phase.attempt(label, thunk)
        if ok:
            phase.counts[kind] += len(rows)
            if record and phase.attempted % VERIFY_EVERY == 0:
                self.checked.append((sql, params, rows))

    # ------------------------------------------------------------------
    def reference(self):
        """The sqlite3 oracle: a copy of the same generated rows, indexed
        on every lookup column so checking stays fast."""
        connection = sqlite_copy(self.engine.catalog, list(TABLES))
        for table, (column, _) in [*PK_TABLES.items(), *SECONDARY.items()]:
            connection.execute(f"CREATE INDEX ix_{table}_{column} "
                               f"ON {table} ({column})")
        return connection

    def verify(self, reference=None) -> list[str]:
        reference = reference or self.reference()
        problems = []
        for sql, params, rows in self.checked:
            expected = reference.execute(sql, params).fetchall()
            if sorted(map(tuple, rows)) != sorted(expected):
                problems.append(f"oltp_point: {sql} {params} returned "
                                f"{rows[:3]}, sqlite3 {expected[:3]}")
        if not self.checked:
            problems.append("oltp_point: no statement was checked")
        return problems[:20]
