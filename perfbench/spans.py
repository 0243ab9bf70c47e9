"""Spans around calls into the package's layers, for the traced run.

The package is not edited: ``Tracer.install`` replaces each public
function listed in ``TARGETS`` by a timing wrapper in every ``starfactor``
module that binds it (so calls from one layer into another are caught
too), and ``Tracer.uninstall`` puts the originals back.  Spans are kept in
memory as ``[name, start_ns, end_ns, parent, phase, counts]`` and written
out once at the end.

Census workers are forked from the traced process, so they inherit the
wrappers; each worker writes its spans to a file when it exits and the
parent merges them under the span that was open when the pool started.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import sys
from pathlib import Path
from time import perf_counter_ns

# (module, function, span name, counts taken from (args, result))
TARGETS = [
    ("graph", "parse_graph6", "graph.parse", None),
    ("graph", "girth", "graph.girth", None),
    ("graph", "connected_components", "graph.components", None),
    ("factors", "enumerate_star_factors", "factors.enumerate", lambda a, r: (len(r),)),
    ("factors", "incidence_vectors", "factors.incidence", None),
    ("solver", "omega_oracle", "solver.oracle", None),
    ("solver", "decide_uniform_weighting", "solver.decide", None),
    ("solver", "verify_outcome", "solver.verify", None),
    ("simplex", "solve", "simplex.solve", lambda a, r: (len(a[1]), len(a[0]))),
    ("classifier", "classify", "classifier.classify", None),
    ("classifier", "classify_connected_girth5", "classifier.structural", None),
    ("classifier", "classification_to_json", "classifier.json", None),
    ("census", "generate_connected", "census.generate", None),
    ("census", "generate_connected_girth5", "census.generate", None),
    ("census", "evaluate_graph", "census.evaluate", None),
    ("census", "cross_validate", "census.cross_validate", None),
    ("census", "report", "census.report", None),
    ("cli", "run", "cli.run", None),
]
GENERATORS = {"census.generate"}
LAYERS = ("graph", "factors", "solver", "simplex", "classifier", "census", "cli")


class Tracer:
    def __init__(self, child_dir: Path):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.child_dir = child_dir
        self.originals: dict[tuple[str, str], object] = {}
        self._fork_parent = -1
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # ------------------------------------------------------------ wrapping
    def _wrap(self, name, fn, counts):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter_ns(), 0, tracer.stack[-1] if tracer.stack else -1, tracer.phase, ()]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if name in GENERATORS:
                    result = iter(list(result))
            finally:
                rec[2] = perf_counter_ns()
                tracer.stack.pop()
            if counts is not None:
                rec[5] = counts(args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "starfactor" or k.startswith("starfactor.")]
        for mod_name, fn_name, span, counts in TARGETS:
            original = getattr(sys.modules[f"starfactor.{mod_name}"], fn_name)
            wrapper = self._wrap(span, original, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.originals[(mod.__name__, attr)] = original
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for (mod_name, attr), original in self.originals.items():
            setattr(sys.modules[mod_name], attr, original)
        self.originals.clear()

    # ------------------------------------------------------------ workers
    def _after_fork(self) -> None:
        self._fork_parent = self.stack[-1] if self.stack else -1
        self.spans = []
        self.stack = []
        multiprocessing.util.Finalize(self, self._write_child, exitpriority=10)

    def _write_child(self) -> None:
        path = self.child_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps({"parent": self._fork_parent, "spans": self.spans}))

    def merge_children(self) -> None:
        for path in sorted(self.child_dir.glob("spans-*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            base = len(self.spans)
            for name, start, end, parent, phase, counts in data["spans"]:
                parent = data["parent"] if parent < 0 else base + parent
                self.spans.append([name, start, end, parent, phase, tuple(counts)])

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, phase, counts) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, phase, list(counts)]) + "\n")


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of intervals (children may run in parallel)."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(spans: list[list], phases: set[str]) -> dict[str, float]:
    """Per-layer totals over the spans recorded in ``phases``."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    chosen = [i for i, s in enumerate(spans) if s[4] in phases]
    dur = {i: (spans[i][2] - spans[i][1]) / 1e9 for i in chosen}
    own = {
        i: dur[i] - _covered([(spans[c][1], spans[c][2]) for c in children.get(i, [])]) / 1e9
        for i in chosen
    }

    def total(name, table=dur):
        return sum(table[i] for i in chosen if spans[i][0] == name)

    def count(name, pred=lambda i: True):
        return sum(1 for i in chosen if spans[i][0] == name and pred(i))

    def summed(name, k):
        return sum(spans[i][5][k] for i in chosen if spans[i][0] == name and spans[i][5])

    def parent_is(i, name):
        return spans[i][3] >= 0 and spans[spans[i][3]][0] == name

    out = {
        "solver.decide_s": total("solver.decide"),
        "solver.decide_self_s": total("solver.decide", own),
        "solver.verify_s": total("solver.verify"),
        "solver.decisions": count("solver.decide"),
        "solver.decisions_without_lp": count(
            "solver.decide", lambda i: not children.get(i)
        ),
        "simplex.lp_calls": count("simplex.solve"),
        "simplex.lp_s": total("simplex.solve"),
        "simplex.lp_rows": summed("simplex.solve", 0),
        "simplex.lp_cols": summed("simplex.solve", 1),
        "factors.enumerate_s": total("factors.enumerate"),
        "factors.factors_found": summed("factors.enumerate", 0),
        "factors.incidence_s": total("factors.incidence"),
        "graph.parse_s": total("graph.parse"),
        "graph.girth_s": total("graph.girth"),
        "graph.girth_calls": count("graph.girth"),
        "graph.components_s": total("graph.components"),
        "classifier.classify_s": total("classifier.classify"),
        "classifier.structural_components": count("classifier.structural"),
        "classifier.fallback_components": count(
            "solver.oracle", lambda i: parent_is(i, "classifier.classify")
        ),
        "classifier.json_s": total("classifier.json"),
        "census.generate_s": total("census.generate"),
        "census.cross_validate_s": total("census.cross_validate"),
        "census.graphs": count("census.evaluate"),
        "census.report_s": total("census.report"),
        "cli.run_s": total("cli.run"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(own[i] for i in chosen if spans[i][0].startswith(layer + "."))
    return out




def unit(name: str) -> str:
    return "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
