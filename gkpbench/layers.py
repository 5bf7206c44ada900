"""Per-layer metrics from the spans of one traced pass.

A layer's busy time is the summed duration of its outermost spans; its self
time is each span's duration minus the time its child spans cover. Values
are summed over the commands of the pass. A layer the workload never enters
reads 0; a layer whose hook is absent is left out.
"""

# metric -> (span name, statistic). The statistics are calls, busy, self,
# cpu, failed, hit_ratio, "sum:<key>" and "min:<key>". Units and directions
# are in BENCHMARK.json.
LAYER_METRICS = {
    "sweep.eigh.calls": ("sweep.eigh", "calls"),
    "sweep.eigh.busy_s": ("sweep.eigh", "busy"),
    "sweep.eigh.cpu_s": ("sweep.eigh", "cpu"),
    "sweep.run_sweep.self_s": ("sweep.run_sweep", "self"),
    "fock.displacement_matrix.calls": ("fock.displacement_matrix", "calls"),
    "fock.displacement_matrix.busy_s": ("fock.displacement_matrix", "busy"),
    "operators.build_operator_set.calls": ("operators.build_operator_set", "calls"),
    "operators.build_operator_set.self_s": ("operators.build_operator_set", "self"),
    "operators.build_operator_set.cache_hit_ratio":
        ("operators.build_operator_set", "hit_ratio"),
    "fock.ground_state.calls": ("fock.ground_state", "calls"),
    "fock.ground_state.busy_s": ("fock.ground_state", "busy"),
    "fock.ground_state.cpu_s": ("fock.ground_state", "cpu"),
    "analysis.regression_per_cutoff.self_s": ("analysis.regression_per_cutoff", "self"),
    "analysis.ksg_mutual_information.calls": ("analysis.ksg_mutual_information", "calls"),
    "analysis.ksg_mutual_information.busy_s": ("analysis.ksg_mutual_information", "busy"),
    "analysis.extrapolate_slope.busy_s": ("analysis.extrapolate_slope", "busy"),
    "analysis.fit_windows.attempted": ("analysis.fit_windows", "calls"),
    "analysis.fit_windows.failed": ("analysis.fit_windows", "failed"),
    "gaussian.minimize_over_gaussians.busy_s": ("gaussian.minimize_over_gaussians", "busy"),
    "gaussian.nelder_mead.starts": ("gaussian.nelder_mead", "calls"),
    "gaussian.nelder_mead.nfev": ("gaussian.nelder_mead", "sum:nfev"),
    "gaussian.nelder_mead.self_s": ("gaussian.nelder_mead", "self"),
    "homodyne.estimate_witness.busy_s": ("homodyne.estimate_witness", "busy"),
    "homodyne.sample_quadrature.calls": ("homodyne.sample_quadrature", "calls"),
    "homodyne.sample_quadrature.busy_s": ("homodyne.sample_quadrature", "busy"),
    "wigner.wigner.busy_s": ("wigner.wigner", "busy"),
    "wigner.grid_points": ("wigner.wigner", "sum:points"),
    "wigner.captured_mass": ("wigner.wigner", "min:mass"),
    "io_utils.write.calls": ("io_utils.write", "calls"),
    "io_utils.write.busy_s": ("io_utils.write", "busy"),
    "io_utils.write.bytes": ("io_utils.write", "sum:bytes"),
    "cli.load_sweep.busy_s": ("cli.load_sweep", "busy"),
    "bloch.atlas.busy_s": ("bloch.atlas", "busy"),
    "cli.self_s": ("cli.main", "self"),
}


def span_times(spans):
    """(duration, self time, outermost) for each span of one command."""
    durations = [s["end"] - s["start"] for s in spans]
    covered = [0.0] * len(spans)
    for span, duration in zip(spans, durations):
        if span["parent"] is not None:
            covered[span["parent"]] += duration
    result = []
    for i, span in enumerate(spans):
        outermost = True
        parent = span["parent"]
        while parent is not None:
            if spans[parent]["name"] == span["name"]:
                outermost = False
            parent = spans[parent]["parent"]
        result.append((durations[i], max(durations[i] - covered[i], 0.0), outermost))
    return result


def coverage(record, teardown, wall):
    """Share of a command's wall time covered by set-up, interpreter teardown
    and the self time of every hooked layer below the command's root span."""
    spans = record["spans"]
    times = span_times(spans)
    layers = sum(t[1] for s, t in zip(spans, times) if s["parent"] is not None)
    return (record["setup_s"] + layers + teardown) / wall


def _statistic(stat, spans, times):
    if stat == "calls":
        return len(spans)
    if stat == "busy":
        return sum(t[0] for t in times if t[2])
    if stat == "self":
        return sum(t[1] for t in times)
    if stat == "cpu":
        return sum(s.get("cpu", 0.0) for s in spans)
    if stat == "failed":
        return sum(1 for s in spans if s.get("failed"))
    if stat == "hit_ratio":
        looked_up = [s["hit"] for s in spans if "hit" in s]
        if len(looked_up) < len(spans):
            return None
        return sum(looked_up) / len(looked_up) if looked_up else 0.0
    kind, key = stat.split(":")
    values = [s[key] for s in spans if key in s]
    if kind == "sum":
        return sum(values)
    return min(values) if values else 0.0


def layer_metrics(records):
    """Per-layer metric values over the command records of one traced pass."""
    absent = set()
    by_name = {}
    for record in records:
        absent.update(record.get("absent", ()))
        spans = record.get("spans", [])
        for span, times in zip(spans, span_times(spans)):
            entry = by_name.setdefault(span["name"], ([], []))
            entry[0].append(span)
            entry[1].append(times)
    values = {}
    for metric, (name, stat) in LAYER_METRICS.items():
        if name in absent:
            continue
        spans, times = by_name.get(name, ([], []))
        value = _statistic(stat, spans, times)
        if value is not None:
            values[metric] = value
    return values
