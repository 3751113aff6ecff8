"""Call spans around privcsp's public functions, installed from outside the
package.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper at
every privcsp module that binds it (``from .x import f`` makes a second
binding), and replaces class members in place. Every call records a span
``[name, start, end, parent, op, extra]`` in memory. ``aggregate`` turns
the spans of one pass into per-function calls, total and self time, and
exact counts; ``write`` saves the raw spans as JSON lines.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute path). A dotted path names a class member.
TARGETS = (
    ("cli", "main"),
    ("harness", "estimate_ratio"),
    ("harness", "sweep"),
    ("harness", "audit"),
    ("harness", "verify_hardness"),
    ("csp_core", "load_instance"),
    ("csp_core", "eval_value"),
    ("csp_core", "is_triangle_free"),
    ("csp_core", "WeightedGraph.degree_counts"),
    ("csp_core", "WeightedGraph.edge_arrays"),
    ("csp_core", "WeightedGraph.is_unweighted"),
    ("csp_core", "assignment_blocks"),
    ("csp_core", "compile_values"),
    ("csp_core", "all_values"),
    ("dp_mechanisms", "RngStream.generator"),
    ("dp_mechanisms", "em_over_assignments"),
    ("dp_mechanisms", "em_over_assignments_batch"),
    ("dp_mechanisms", "exponential_mechanism"),
    ("dp_mechanisms", "randomized_response"),
    ("dp_mechanisms", "sample_discrete_laplace"),
    ("dp_mechanisms", "sample_laplace"),
    ("oracles", "brute_force_opt"),
    ("oracles", "exact_median_theta"),
    ("oracles", "empirical_epsilon"),
    ("oracles", "verify_packing_separation"),
    ("algo_csp", "alg1_triangle_free_bounded"),
    ("algo_csp", "alg1_batch"),
    ("algo_csp", "alg2_partition_kxor"),
    ("algo_csp", "alg3_dp_advrand"),
    ("algo_csp", "alg_oddk_unbounded"),
    ("algo_maxcut", "shearer_batch"),
    ("algo_maxcut", "dp_shearer_batch"),
    ("algo_maxcut", "dp_maxcut_unbounded"),
    ("algo_maxcut", "dp_maxcut_general"),
    ("algo_maxcut", "mutual_choice_matching"),
    ("algo_maxcut", "matching_em_cut"),
    ("generators", "gen_random_kxor"),
    ("generators", "gen_triangle_free_graph"),
    ("generators", "gen_hard_family"),
)
EVALUATOR = "csp_core.evaluate_block"
AUDIT_MECHANISM = "harness.audit.mechanism"
# Counts summed over a function's spans; "active_max" is a maximum instead.
SUM_COUNTS = ("rows", "bytes_computed", "trials", "exit3", "hook_error")


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = ""

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list, extra: dict | None) -> None:
        rec[2] = perf_counter()
        self._stack.pop()
        rec[5] = extra

    def wrap(self, name: str, fn, pre=None, post=None):
        """Wraps fn in a span. pre(args, kwargs) -> (args, kwargs, extra)
        runs before the call; post(result, extra) -> result after it."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = None
            if pre is not None:
                try:
                    args, kwargs, extra = pre(args, kwargs)
                except (TypeError, KeyError, AttributeError):
                    # the signature moved on; trace the call without counts
                    extra = {"hook_error": 1}
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(rec, dict(extra or {}, raised=type(exc).__name__))
                raise
            if post is not None:
                extra = dict(extra or {})
                result = post(result, extra)
            self._close(rec, extra)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        """One span per next(): the time to produce each item."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                rec = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    self._close(rec, None)
                    return
                except BaseException:
                    self._close(rec, None)
                    raise
                block = item[1] if isinstance(item, tuple) else item
                shape = getattr(block, "shape", None)
                self._close(rec, {"rows": int(shape[0]), "bytes_computed": int(block.nbytes)} if shape else None)
                yield item

        return traced

    # -------------------------------------------------------- per-target hooks

    def _hooks(self, name: str, fn):
        def rows(args, kwargs):
            return args, kwargs, {"rows": int(args[0].shape[0])}

        def evaluator(result, extra):
            return self.wrap(EVALUATOR, result, pre=rows)

        def active(args, kwargs):
            return args, kwargs, {"active": len(list(_bound(fn, args, kwargs)["active"]))}

        def mechanism(args, kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.arguments["mechanism"] = self.wrap(AUDIT_MECHANISM, bound.arguments["mechanism"])
            return bound.args, bound.kwargs, None

        def ratio_trials(args, kwargs):
            config = _bound(fn, args, kwargs)["config"]
            return args, kwargs, {"trials": config.trials * len(config.eps)}

        def audit_trials(args, kwargs):
            return args, kwargs, {"trials": 2 * _bound(fn, args, kwargs)["trials"]}

        def exit_code(result, extra):
            extra["exit3"] = int(result == 3)
            return result

        return {
            "csp_core.compile_values": (None, evaluator),
            "dp_mechanisms.em_over_assignments": (active, None),
            "oracles.empirical_epsilon": (mechanism, None),
            "harness.estimate_ratio": (ratio_trials, None),
            "harness.audit": (audit_trials, None),
            "cli.main": (None, exit_code),
        }.get(name, (None, None))

    def install(self, modules: dict) -> list[str]:
        """Wraps every target in the freshly imported privcsp modules
        ({short name: module}); returns the targets not found."""
        missing = []
        for mod_name, path in TARGETS:
            name = f"{mod_name}.{path}"
            owner_path, _, attr = path.rpartition(".")
            owner = modules.get(mod_name)
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if raw is None:
                missing.append(name)
                continue
            if isinstance(raw, property):
                setattr(owner, attr, property(self.wrap(name, raw.fget), raw.fset, raw.fdel, raw.__doc__))
            elif owner_path:
                setattr(owner, attr, self.wrap(name, raw, *self._hooks(name, raw)))
            else:
                wrapped = self.wrap(name, raw, *self._hooks(name, raw))
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)
        return missing

    # ------------------------------------------------------------ reporting

    def aggregate(self, op_prefix: str) -> dict[str, dict]:
        """Per-function statistics over the spans whose op id starts with
        op_prefix: calls, s (total, nested calls of the same function
        counted once), self_s (s minus time in traced callees) and counts.
        brute_force_opt gets rows: evaluator rows beneath it."""
        idx = [i for i, rec in enumerate(self.spans) if rec[4].startswith(op_prefix)]
        child_time = defaultdict(float)
        for i in idx:
            rec = self.spans[i]
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        stats: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for i in idx:
            name, t0, t1, parent, _, extra = self.spans[i]
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += (t1 - t0) - child_time[i]
            if self._ancestor(parent, name) is None:
                st["s"] += t1 - t0
            if extra:
                for key in SUM_COUNTS:
                    if key in extra:
                        st[key] += extra[key]
                if extra.get("raised") == "ResourceCapError":
                    st["refused"] += 1
                elif "active" in extra and "raised" not in extra:
                    st["active_max"] = max(st["active_max"], extra["active"])
            if name == EVALUATOR and extra and "rows" in extra:
                anc = self._ancestor(parent, "oracles.brute_force_opt")
                if anc is not None:
                    stats["oracles.brute_force_opt"]["rows"] += extra["rows"]
        return {k: dict(v) for k, v in stats.items()}

    def _ancestor(self, i: int, name: str):
        while i >= 0:
            if self.spans[i][0] == name:
                return i
            i = self.spans[i][3]
        return None

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "extra")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
