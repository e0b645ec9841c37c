"""In-memory span recorder for the traced benchmark run.

The recorder wraps public slaglab functions from outside the package.  Each
wrapped call becomes one span (name, start, end, parent, tag) and one count.
Spans stay in memory; ``summary`` turns them into the per-layer metrics and
``dump`` writes everything out once, at the end of the run.

A function imported with ``from ... import`` is bound under its own name in
every importing module, so ``install`` replaces the binding in every slaglab
module that holds it, not only in the defining one.  Otherwise calls made
through the other bindings would go uncounted.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import Counter

# (group, module, attribute).  A dotted attribute names a method on a class.
TARGETS = (
    ("runner.load", "slaglab.runner", "load_scenario"),
    ("runner.run", "slaglab.runner", "run"),
    ("runner.run", "slaglab.runner", "convergence_study"),
    ("runner.emit", "slaglab.runner", "emit"),
    ("runner.emit", "slaglab.runner", "emit_convergence"),
    ("fixtures.build", "slaglab.fixtures", "build_fixture"),
    ("meshes.topology", "slaglab.meshes", "betti_profile"),
    ("meshes.topology", "slaglab.meshes", "relative_cycle_basis"),
    ("meshes.topology", "slaglab.meshes", "absolute_cycle_basis"),
    ("meshes.topology", "slaglab.meshes", "SimplicialMesh.betti_profile"),
    ("dec.assembly", "slaglab.dec", "HodgeStructure.mass_matrix"),
    ("dec.assembly", "slaglab.dec", "HodgeStructure.wedge_matrix"),
    ("dec.assembly", "slaglab.dec", "HodgeStructure.factorized_mass"),
    ("dec.harmonic", "slaglab.dec", "harmonic_fields"),
    ("dec.star", "slaglab.dec", "hodge_star"),
    ("immersion.pullback", "slaglab.immersion", "pullback_metric"),
    ("immersion.validate", "slaglab.immersion", "validate"),
    ("ambient.form", "slaglab.ambient", "ConstantForm.__call__"),
    ("ambient.wrap", "slaglab.ambient", "AmbientModel.wrap_displacement"),
    ("flux.pass", "slaglab.flux", "relative_flux"),
    ("flux.pass", "slaglab.flux", "special_flux"),
    ("flux.integrand", "slaglab.flux", "tangent_one_form"),
    ("flux.integrand", "slaglab.flux", "dual_form"),
    ("flux.oracle", "slaglab.flux", "swept_rf_oracle"),
    ("flux.oracle", "slaglab.flux", "swept_sf_oracle"),
    ("charts.pairing", "slaglab.charts", "pairing_structure"),
    ("charts.chart", "slaglab.charts", "evaluate_chart"),
    ("charts.grid", "slaglab.charts", "sample_grid"),
    ("charts.jacobian", "slaglab.charts", "chart_jacobian"),
    ("charts.fit", "slaglab.charts", "hessian_fit"),
    ("charts.fit", "slaglab.charts", "transition_affine_fit"),
    ("charts.fit", "slaglab.charts", "pullback_BW"),
)

# Modules whose self time is reported; "workload" is the child's own code and
# everything no wrapper covers, "trace" the recorder's own bookkeeping.
MODULES = ("setup", "runner", "fixtures", "meshes", "dec", "immersion",
           "ambient", "flux", "charts", "workload", "trace")
LEVELS = (1, 2, 4)
RATIOS = ("flux.integrand_per_sample", "flux.distinct_pass_ratio")


def unit_of(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    if name.endswith(("_calls", ".samples")):
        return "count"
    return "s"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, tag, outermost of its name]
        self.counts = Counter()
        self._stack = []
        self._depth = Counter()
        self._paused = 0
        self._mesh_levels = {}
        self._fixtures = []  # keeps tagged meshes alive so their ids stay unique
        self._pass_keys = set()

    # -- recording ----------------------------------------------------------

    def begin(self, name, tag=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, tag,
                           self._depth[name] == 0])
        self._stack.append(idx)
        self._depth[name] += 1
        self.counts[name] += 1
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._depth[span[0]] -= 1

    def span(self, name, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def wrap(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            tag = before(self, fn, args, kwargs) if before else None
            idx = self.begin(name, tag)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after:  # in its own span, so no layer's self time includes it
                self.span("trace.hook", after, self, fn, args, kwargs, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding that slaglab modules hold."""
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("slaglab"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    # -- summaries ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics: outermost inclusive time per group, counts, self time."""
        inclusive = Counter()
        topology_by_level = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, tag, outermost in self.spans:
            dur = end - start
            if outermost:
                inclusive[name] += dur
                if name == "meshes.topology" and tag in LEVELS:
                    topology_by_level[tag] += dur
            if parent >= 0:
                child_time[parent] += dur
        self_time = Counter()
        for (name, start, end, *_), covered in zip(self.spans, child_time):
            self_time[name.split(".")[0]] += (end - start) - covered
        c = self.counts
        passes = c["flux.pass"]
        samples = c["flux.samples"]
        metrics = {
            "setup.import_s": inclusive["setup.import"],
            "runner.load_s": inclusive["runner.load"],
            "fixtures.build_s": inclusive["fixtures.build"],
            "meshes.topology_s": inclusive["meshes.topology"],
            "meshes.topology_calls": c["meshes.topology"],
            **{f"meshes.topology_s.l{lv}": topology_by_level[lv] for lv in LEVELS},
            "dec.assembly_s": inclusive["dec.assembly"],
            "dec.harmonic_s": inclusive["dec.harmonic"],
            "dec.harmonic_calls": c["dec.harmonic"],
            "dec.star_s": inclusive["dec.star"],
            "dec.star_calls": c["dec.star"],
            "immersion.pullback_s": inclusive["immersion.pullback"],
            "immersion.validate_s": inclusive["immersion.validate"],
            "ambient.form_s": inclusive["ambient.form"],
            "ambient.form_calls": c["ambient.form"],
            "ambient.wrap_s": inclusive["ambient.wrap"],
            "ambient.wrap_calls": c["ambient.wrap"],
            "flux.pass_s": inclusive["flux.pass"],
            "flux.pass_calls": passes,
            "flux.samples": samples,
            "flux.integrand_calls": c["flux.integrand"],
            # Both ratios read 0 when the workload makes no flux pass.
            "flux.integrand_per_sample": c["flux.integrand"] / samples if samples else 0.0,
            "flux.distinct_pass_ratio": len(self._pass_keys) / passes if passes else 0.0,
            "flux.oracle_s": inclusive["flux.oracle"],
            "flux.oracle_calls": c["flux.oracle"],
            "charts.pairing_s": inclusive["charts.pairing"],
            "charts.chart_s": inclusive["charts.chart"],
            "charts.chart_calls": c["charts.chart"],
            "charts.grid_s": inclusive["charts.grid"],
            "charts.jacobian_s": inclusive["charts.jacobian"],
            "charts.fit_s": inclusive["charts.fit"],
            "runner.run_s": inclusive["runner.run"],
            "runner.emit_s": inclusive["runner.emit"],
        }
        metrics.update({f"{mod}.self_s": self_time[mod] for mod in MODULES})
        return metrics

    def dump(self, path) -> None:
        data = {
            "span_fields": ["name", "start", "end", "parent", "tag"],
            "spans": [span[:5] for span in self.spans],
            "counts": dict(self.counts),
            "summary": self.summary(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data))  # json.dump would use the slow pure-Python encoder


# -- hooks: tags before a call, extra counts after it ---------------------------------


def _tag_mesh_level(tracer, fn, args, kwargs):
    return tracer._mesh_levels.get(id(args[0]))


def _record_fixture_level(tracer, fn, args, kwargs, fixture):
    level = args[1] if len(args) > 1 else kwargs.get("level", 1)
    tracer._mesh_levels[id(fixture.mesh)] = int(level)
    tracer._fixtures.append(fixture)


def _record_pass(tracer, fn, args, kwargs, result):
    """Counts samples and remembers the (space, positions, velocities) key of a pass."""
    path = args[1]
    tracer.counts["flux.samples"] += path.n_samples
    tracer._paused += 1
    try:
        digest = hashlib.sha1(fn.__name__.encode())
        for j in range(path.n_samples):
            digest.update(path.immersion_at(j).positions.tobytes())
            digest.update(path.velocity_at(j).tobytes())
    finally:
        tracer._paused -= 1
    tracer._pass_keys.add(digest.hexdigest())


_HOOKS = {
    "meshes.topology": (_tag_mesh_level, None),
    "fixtures.build": (None, _record_fixture_level),
    "flux.pass": (None, _record_pass),
}
