"""Per-layer tracing from outside the program: every public function of
each ``setfam`` module is wrapped, under every name it is bound to, so a
call made through ``from .x import y`` is seen too.  ``src/`` is not
edited.

A span is recorded at each wrapped call: name, parent span, start, end,
error and note.  Spans stay in memory until the run ends.  A span's self
time is its duration minus the time its child spans cover.

The layers are the modules; ``setfam._kernels`` is reported as
``kernels``, because a metric name must start with a letter.  Nothing in the program waits on anything
else (one thread, no I/O), so there are no waiting metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import time
from collections import Counter

LAYERS = ("_kernels", "famcore", "generators", "covers", "enumeration", "search", "bounds", "cli")

# Called hundreds of thousands of times per theorems pass; timing each
# call added about a quarter to the pass, so these are only counted.
COUNT_ONLY = frozenset({"covers.is_cover"})

# Per-layer metrics the traced run reports: function -> stats.
REPORTED = {
    "kernels.canonical_min": ("calls", "self_s", "seed_misses"),
    "kernels.max_clique_size": ("calls", "self_s", "errors"),
    "kernels.maximal_cliques": ("calls", "self_s"),
    "enumeration.iso_classes": ("self_s",),
    "enumeration.canonical_members": ("calls", "seed_hit_ratio"),
    "enumeration.intersection_adjacency": ("calls", "self_s"),
    "search.max_intersecting_subfamily": ("calls", "self_s"),
    "covers.kernel": ("calls", "self_s"),
    "covers.is_cover": ("calls",),
    "covers.cover_number": ("calls", "self_s"),
    "covers.matching_number": ("calls", "self_s"),
    "famcore.degree_profile": ("calls", "self_s"),
    "famcore.is_intersecting": ("calls", "self_s"),
    "generators.gen_complete": ("self_s",),
    "generators.gen_constrained": ("self_s",),
    "generators.gen_full_star": ("self_s",),
    "generators.gen_hm": ("self_s",),
    "bounds.telescoping_grid": ("self_s",),
    "bounds.vandermonde_grid": ("self_s",),
    "bounds.tail_ratio_grid": ("self_s",),
    "bounds.degree_size_chain_grid": ("self_s",),
    "bounds.inclusion_exclusion_grid": ("self_s",),
    "cli.suite_theorems": ("self_s",),
}
# search.omega_s is the first max_clique_size call inside each
# max_intersecting_subfamily (the proof of omega); the witness columns
# are the remaining calls, which rebuild the lex-least witness.
DERIVED = {"search.omega_s": "s", "search.witness_s": "s", "search.witness_calls": "count"}
OVERHEAD = ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s")

UNITS = {
    "calls": "count",
    "self_s": "s",
    "seed_misses": "count",
    "errors": "count",
    "seed_hit_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {f"{fn}.{stat}": UNITS[stat] for fn, stats in REPORTED.items() for stat in stats}
    out.update(DERIVED)
    out.update({name: "s" for name in OVERHEAD})
    return out


# --- wrapping -------------------------------------------------------------------


def _canonical_min_note(args, kwargs, result):
    seed = args[2] if len(args) > 2 else kwargs.get("seed")
    if seed is None:
        return None
    return "seed_hits" if result[1] else "seed_misses"


NOTES = {"kernels.canonical_min": _canonical_min_note}


def _public_functions():
    """{id(function): (function, "layer.name")} for every public routine a
    layer module defines (for _kernels, the backend's kernels)."""
    owned = {}
    for layer in LAYERS:
        mod = sys.modules[f"setfam.{layer}"]
        home = mod.__name__
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isroutine(obj):
                continue
            origin = getattr(obj, "__module__", "") or ""
            if origin == home or (layer == "_kernels" and origin.startswith(home + ".")):
                owned.setdefault(id(obj), (obj, f"{layer.lstrip('_')}.{name}"))
    return owned


class Tracer:
    """Wraps setfam's public functions and records spans until uninstalled.

    Pass 0 holds what runs before start_pass is first called (set-up);
    each start_pass opens the next pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, error, note, pass]
        self.counts: Counter = Counter()  # (pass, name) -> calls of COUNT_ONLY functions
        self.pass_no = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # COUNT_ONLY calls tick an itertools.count, the cheapest counter
        # there is; _close_counts moves the ticks into self.counts.
        self._ticks: dict[str, itertools.count] = {}
        self._read: dict[str, int] = {}

    def _close_counts(self):
        # Reading a count with next() takes one value too, hence the - 1.
        for name, ticks in self._ticks.items():
            now = next(ticks)
            self.counts[self.pass_no, name] += now - self._read.get(name, -1) - 1
            self._read[name] = now

    def start_pass(self):
        self._close_counts()
        self.pass_no += 1

    def _wrap(self, fn, name):
        if name in COUNT_ONLY:
            tick = self._ticks.setdefault(name, itertools.count()).__next__

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tick()
                return fn(*args, **kwargs)

            return counted

        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        def open_span(resumed):
            rec = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, None,
                   "resume" if resumed else None, self.pass_no]
            stack.append(len(spans))
            spans.append(rec)
            return rec

        def close_span(rec):
            rec[3] = time.perf_counter()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so consumer code between items is
            # not charged to the generator.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                resumed = False
                while True:
                    rec = open_span(resumed)
                    resumed = True
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except Exception as e:
                        rec[4] = type(e).__name__
                        raise
                    finally:
                        close_span(rec)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = open_span(False)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                rec[4] = type(e).__name__
                raise
            finally:
                close_span(rec)
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> "Tracer":
        owned = _public_functions()
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in owned.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "setfam" or modname.startswith("setfam.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in owned and owned[id(obj)][0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        return self

    def uninstall(self):
        self._close_counts()
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def snapshot(self):
        """Spans and counts in a picklable form, for merge in another process."""
        self._close_counts()
        return self.spans, dict(self.counts)

    def merge(self, snapshot):
        """Add a child process's spans and counts to the current pass."""
        spans, counts = snapshot
        base = len(self.spans)
        for name, parent, t0, t1, err, note, _ in spans:
            self.spans.append([name, parent + base if parent >= 0 else -1, t0, t1, err, note,
                               self.pass_no])
        for (_, name), n in counts.items():
            self.counts[self.pass_no, name] += n


# --- aggregation ----------------------------------------------------------------


def pass_profiles(tracer) -> list[dict]:
    """Per pass (index 0 is set-up): {function: Counter of calls, self_s,
    errors and notes}, plus the search.* split of max_clique_size time."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[1] >= 0:
            child_time[rec[1]] += rec[3] - rec[2]
    profiles = [dict() for _ in range(tracer.pass_no + 1)]
    first_seen: set[int] = set()
    for i, (name, parent, t0, t1, err, note, p) in enumerate(spans):
        stats = profiles[p].setdefault(name, Counter())
        if note != "resume":
            stats["calls"] += 1
        stats["self_s"] += (t1 - t0) - child_time[i]
        if err is not None:
            stats["errors"] += 1
        if note in ("seed_hits", "seed_misses"):
            stats[note] += 1
        if name == "kernels.max_clique_size" and parent >= 0 and (
            spans[parent][0] == "search.max_intersecting_subfamily"
        ):
            search = profiles[p].setdefault("search", Counter())
            if parent in first_seen:
                search["witness_s"] += t1 - t0
                search["witness_calls"] += 1
            else:
                first_seen.add(parent)
                search["omega_s"] += t1 - t0
    for (p, name), n in tracer.counts.items():
        profiles[p].setdefault(name, Counter())["calls"] += n
    return profiles


def _joined(setup, profile):
    out = {fn: Counter(stats) for fn, stats in setup.items()}
    for fn, stats in profile.items():
        out.setdefault(fn, Counter()).update(stats)
    return out


def _stat(profile, fn, stat):
    # canonical_members seeds canonical_min; a hit is a seeded call whose
    # seed was reached, so the ratio is read off canonical_min's notes.
    if stat == "seed_hit_ratio":
        stats = profile.get("kernels.canonical_min", Counter())
        tried = stats["seed_hits"] + stats["seed_misses"]
        return stats["seed_hits"] / tried if tried else 0.0
    return profile.get(fn, Counter())[stat]


def layer_metrics(tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics for set-up plus one pass: counts from the first
    pass, times as the median over passes.  Also returns the names of any
    count that differed between passes (there should be none)."""
    profiles = pass_profiles(tracer)
    runs = [_joined(profiles[0], p) for p in profiles[1:]]
    values: dict[str, float] = {}
    unstable = []
    keyed = [(fn, stat) for fn, stats in REPORTED.items() for stat in stats]
    keyed += [tuple(name.split(".", 1)) for name in DERIVED]
    for fn, stat in keyed:
        per_pass = [_stat(run, fn, stat) for run in runs]
        name = f"{fn}.{stat}"
        if stat.endswith("_s"):
            values[name] = statistics.median(per_pass)
        else:
            values[name] = per_pass[0]
            if len(set(per_pass)) > 1:
                unstable.append(name)
    return values, unstable


def busiest(tracer, top=12) -> list[tuple[str, int, float]]:
    """(function, calls, self_s) over set-up and the first pass, busiest first."""
    profiles = pass_profiles(tracer)
    run = _joined(profiles[0], profiles[1])
    rows = [(fn, s["calls"], s["self_s"]) for fn, s in run.items() if fn != "search" and s["calls"]]
    rows.sort(key=lambda r: -r[2])
    return rows[:top]
