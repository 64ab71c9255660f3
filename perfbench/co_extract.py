"""``co_extract``: the paper's own operation, set-oriented CO extraction
into a client cache, then navigation of the cached objects.

Org at 200 departments plus a BOM forest (6 roots, depth 5, fanout 4)
in one in-memory engine.  One client alternates, for Fig. 1's
``deps_arc`` and for the recursive BOM explosion view: ``open_cache()``
(one extraction) then a full depth-first navigation of that cache.

Each extraction starts from a collected heap (see :meth:`COExtract.step`).
Only two compiled artifacts exist, so parse and the plan cache do no
work; the executor, XNF stream assembly, the cache workspace build and
navigation do all of it.
"""

from __future__ import annotations

import gc

from repro import Engine
from repro.cache.manager import XNFCache
from repro.workloads.bom import (BOMScale, bom_view_query, create_bom_schema,
                                 populate_bom)
from repro.workloads.orgdb import (DEPS_ARC_QUERY, OrgScale,
                                   create_org_schema, populate_org)

from common import (Phase, Workload, bom_scale, cache_canonical,
                    canonical_tuples, diff_canonical, org_scale, sqlite_copy)

#: view -> root component the navigation starts from
VIEWS = {"DEPS_ARC": "XDEPT", "BOM_EXPLOSION": "XASSEMBLY"}
TABLES = ("DEPT", "EMP", "PROJ", "SKILLS", "EMPSKILLS", "PROJSKILLS",
          "PART", "CONTAINS")

_ARC = "SELECT DNO FROM DEPT WHERE LOC = 'ARC'"
_REACH = ("WITH RECURSIVE reach(pno) AS ("
          "SELECT CHILD FROM CONTAINS WHERE PARENT IN ({roots}) "
          "UNION SELECT k.CHILD FROM CONTAINS k JOIN reach r "
          "ON k.PARENT = r.pno) ")
#: The XNF semantics of both views written as plain SQL over sqlite3:
#: per component (table, prefix, restriction on alias t); per
#: relationship (prefix, FROM/WHERE over parent p and child c).
ORACLE = {
    "DEPS_ARC": {
        "components": {
            "XDEPT": ("DEPT", "", "t.LOC = 'ARC'"),
            "XEMP": ("EMP", "", f"t.EDNO IN ({_ARC})"),
            "XPROJ": ("PROJ", "", f"t.PDNO IN ({_ARC})"),
            "XSKILLS": ("SKILLS", "", (
                "t.SNO IN (SELECT ESSNO FROM EMPSKILLS WHERE ESENO IN "
                f"(SELECT ENO FROM EMP WHERE EDNO IN ({_ARC}))) OR "
                "t.SNO IN (SELECT PSSNO FROM PROJSKILLS WHERE PSPNO IN "
                f"(SELECT PNO FROM PROJ WHERE PDNO IN ({_ARC})))")),
        },
        "relationships": {
            "EMPLOYMENT": ("", "FROM DEPT p JOIN EMP c ON p.DNO = c.EDNO "
                               "WHERE p.LOC = 'ARC'"),
            "OWNERSHIP": ("", "FROM DEPT p JOIN PROJ c ON p.DNO = c.PDNO "
                              "WHERE p.LOC = 'ARC'"),
            "EMPPROPERTY": ("", "FROM EMP p JOIN EMPSKILLS k "
                                "ON p.ENO = k.ESENO JOIN SKILLS c "
                                "ON k.ESSNO = c.SNO "
                                f"WHERE p.EDNO IN ({_ARC})"),
            "PROJPROPERTY": ("", "FROM PROJ p JOIN PROJSKILLS k "
                                 "ON p.PNO = k.PSPNO JOIN SKILLS c "
                                 "ON k.PSSNO = c.SNO "
                                 f"WHERE p.PDNO IN ({_ARC})"),
        },
    },
    "BOM_EXPLOSION": {
        "components": {
            "XASSEMBLY": ("PART", "", "t.PNO IN ({roots})"),
            "XPART": ("PART", _REACH,
                      "t.PNO IN (SELECT pno FROM reach)"),
        },
        "relationships": {
            "TOPLEVEL": ("", "FROM PART p JOIN CONTAINS k "
                             "ON p.PNO = k.PARENT JOIN PART c "
                             "ON k.CHILD = c.PNO "
                             "WHERE p.PNO IN ({roots})"),
            "SUBPARTS": (_REACH, "FROM PART p JOIN CONTAINS k "
                                 "ON p.PNO = k.PARENT JOIN PART c "
                                 "ON k.CHILD = c.PNO "
                                 "WHERE p.PNO IN (SELECT pno FROM reach)"),
        },
    },
}
#: A scale small enough for the reference evaluator (which enumerates
#: every partner combination) to finish in well under a second.
SMALL_ORG = dict(departments=4, employees_per_dept=3, projects_per_dept=2,
                 skills=10, skills_per_employee=2, skills_per_project=2,
                 arc_fraction=0.5)
SMALL_BOM = dict(roots=2, depth=3, fanout=2)


def build_engine(org: OrgScale, bom: BOMScale) -> tuple:
    """An in-memory engine with org + BOM and both CO views; returns
    ``(engine, session, BOM root part numbers)``."""
    engine = Engine()
    create_org_schema(engine.catalog, with_indexes=True)
    populate_org(engine.catalog, org)
    create_bom_schema(engine.catalog, with_indexes=True)
    roots = populate_bom(engine.catalog, bom)["roots"]
    session = engine.connect(label="co-client")
    session.execute(f"CREATE VIEW deps_arc AS {DEPS_ARC_QUERY}")
    session.execute(f"CREATE VIEW bom_explosion AS {bom_view_query(roots)}")
    return engine, session, roots


def navigate(cache: XNFCache, root_component: str) -> int:
    """Depth-first walk over every relationship from the root objects;
    returns the objects visited (roots plus one per traversed
    connection).  Shared or cyclic parts are expanded once."""
    stack = list(cache.extent(root_component))
    seen = {id(obj) for obj in stack}
    visited = len(stack)
    while stack:
        for child in stack.pop().children():
            visited += 1
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return visited


class COExtract(Workload):
    name = "co_extract"
    tail = 0.90
    groups = tuple(f"extract:{view}" for view in VIEWS)
    names = (("extract_p50_ms", "op_p50_us", "ms", 1e3),
             ("extract_p90_ms", "op_tail_us", "ms", 1e3),
             ("co_tuples_s", "ops_s", "1/s", 1.0),
             ("nav_objects_s", "items_s", "1/s", 1.0))

    def __init__(self, seed: int):
        self.seed = seed
        self.bom = bom_scale(seed)
        self.first: dict[str, dict] = {}
        self.tuple_counts: dict[str, set] = {}

    def setup(self) -> None:
        self.close()
        self.engine, self.session, self.roots = build_engine(
            org_scale(self.seed), self.bom)
        self.first = {}
        self.tuple_counts = {view: set() for view in VIEWS}
        warm = Phase()
        self.step(warm)

    # ------------------------------------------------------------------
    def step(self, phase: Phase) -> None:
        for view, root in VIEWS.items():
            # The client drops its previous cache before the next
            # extraction, and the garbage it leaves is collected here,
            # untimed: every extraction starts from the same heap, so
            # the cyclic collector's passes during it depend on its own
            # allocations only.
            cache = None
            gc.collect()
            ok, cache = phase.attempt(
                f"extract:{view}", lambda: self.session.open_cache(view))
            if not ok:
                continue
            if view not in self.first:
                self.first[view] = cache_canonical(cache)
            tuples = cache.workspace.object_count() + sum(
                1 for name in cache.workspace.relationship_names()
                for _ in cache.workspace.connections_of(name))
            self.tuple_counts[view].add(tuples)
            phase.counts[f"tuples:{view}"] += tuples
            ok, visited = phase.attempt(
                f"navigate:{view}", lambda: navigate(cache, root))
            if ok:
                phase.counts[f"objects:{view}"] += visited

    # ------------------------------------------------------------------
    def reference(self) -> dict:
        """Expected canonical CO images from a sqlite3 copy of the
        generated rows, column order taken from the first extraction."""
        connection = sqlite_copy(self.engine.catalog, list(TABLES))
        roots = ", ".join(str(r) for r in self.roots)
        expected = {}
        for view, spec in ORACLE.items():
            cache = self.session.open_cache(view)
            workspace = cache.workspace
            columns = workspace.components_columns
            image = {"components": {}, "relationships": {}}
            for name, (table, prefix, where) in \
                    spec["components"].items():
                select = ", ".join(f"t.{c}" for c in columns[name])
                sql = (prefix + f"SELECT {select} FROM {table} t "
                       f"WHERE {where}").format(roots=roots)
                image["components"][name] = sorted(
                    connection.execute(sql).fetchall())
            for name, (prefix, body) in spec["relationships"].items():
                parent = workspace.relationship_parent[name]
                (child,) = workspace.relationship_children[name]
                width = len(columns[parent])
                select = ", ".join([f"p.{c}" for c in columns[parent]]
                                   + [f"c.{c}" for c in columns[child]])
                sql = (prefix + f"SELECT DISTINCT {select} {body}"
                       ).format(roots=roots)
                image["relationships"][name] = sorted(
                    (row[:width], row[width:])
                    for row in connection.execute(sql).fetchall())
            expected[view] = image
        connection.close()
        return expected

    def verify(self, reference=None) -> list[str]:
        reference = reference or self.reference()
        problems = []
        for view in VIEWS:
            counts = self.tuple_counts.get(view, set())
            if len(counts) != 1:
                problems.append(f"co_extract: {view} extractions delivered "
                                f"varying tuple counts {sorted(counts)}")
            if view not in self.first:
                problems.append(f"co_extract: {view} was never extracted")
                continue
            problems += diff_canonical(reference[view], self.first[view],
                                       f"co_extract {view} vs sqlite3")
            if canonical_tuples(self.first[view]) not in counts:
                problems.append(f"co_extract: {view} canonical tuple count "
                                f"disagrees with the delivered count")
        problems += self.verify_reference_evaluator()
        return problems

    def verify_reference_evaluator(self) -> list[str]:
        """At a small scale from the same seed, every view's extraction
        must equal the reference evaluator's (``session.xnf_naive``)."""
        engine, session, _roots = build_engine(
            OrgScale(seed=self.seed, **SMALL_ORG),
            BOMScale(seed=self.bom.seed, **SMALL_BOM))
        problems = []
        try:
            for view in VIEWS:
                extracted = cache_canonical(session.open_cache(view))
                naive = cache_canonical(XNFCache(session.xnf_naive(view)))
                problems += diff_canonical(
                    naive, extracted, f"co_extract {view} vs xnf_naive")
        finally:
            engine.close()
        return problems

    def rates(self, phase: Phase) -> tuple[list[float], list[float]]:
        """Per view, tuples delivered per second of extraction and
        objects visited per second of navigation."""
        tuples, objects = [], []
        for view in VIEWS:
            tuples.append(phase.counts[f"tuples:{view}"]
                          / phase.busy_s(f"extract:{view}"))
            objects.append(phase.counts[f"objects:{view}"]
                           / phase.busy_s(f"navigate:{view}"))
        return tuples, objects
