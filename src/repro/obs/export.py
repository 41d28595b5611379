"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON and text summary.

The JSON document follows the Trace Event Format used by Chrome's
``about:tracing`` and Perfetto's legacy importer:

* one **process per rank** (``pid = rank``, named ``"rank N"``) so the
  per-rank timelines stack like Fig. 11's Gantt rows; string tracks such
  as ``"pipeline/main"`` or ``"svc/w0"`` become additional processes
  (``pid`` ≥ 1000, assigned in sorted order — deterministic);
* every span is a complete event (``ph: "X"``) with ``ts``/``dur`` in
  microseconds of virtual time;
* every matched send→recv pair is a flow event (``ph: "s"`` at the send,
  ``ph: "f"`` with ``bp: "e"`` at the receive) sharing an ``id``, which
  Perfetto renders as an arrow between the two rank tracks.

``from_chrome_trace`` inverts ``to_chrome_trace`` (modulo the µs float
round-trip, exact for the magnitudes the simulator produces), so traces
can be saved by ``repro trace`` and profiled later by ``repro profile
--trace``.  ``validate_trace`` is the schema check the CI job runs on
emitted files.
"""

from __future__ import annotations

from .tracer import MessageRecord, Span, Tracer, tag_label

#: pid offset for non-rank (string-track) processes
_AUX_PID_BASE = 1000


def _split_track(track):
    """(process label, thread label, sort key) for a span track."""
    if isinstance(track, int):
        return f"rank {track}", "rank", ("", track)
    track = str(track)
    if "/" in track:
        proc, thread = track.split("/", 1)
    else:
        proc, thread = track, "main"
    return proc, thread, (proc, -1)


def _pid_map(spans, messages):
    """Deterministic track → (pid, tid, process name, thread name) map."""
    tracks = []
    for s in spans:
        if s.track not in tracks:
            tracks.append(s.track)
    for m in messages:
        for t in (m.src, m.dest):
            if t not in tracks:
                tracks.append(t)
    ranks = sorted(t for t in tracks if isinstance(t, int))
    aux = sorted(str(t) for t in tracks if not isinstance(t, int))

    out = {}
    for r in ranks:
        out[r] = (int(r), 0, f"rank {r}", "rank")
    procs = []
    for t in aux:
        proc, _, _ = _split_track(t)
        if proc not in procs:
            procs.append(proc)
    procs.sort()
    threads_by_proc = {p: [] for p in procs}
    for t in aux:
        proc, thread, _ = _split_track(t)
        if thread not in threads_by_proc[proc]:
            threads_by_proc[proc].append(thread)
    for t in aux:
        proc, thread, _ = _split_track(t)
        pid = _AUX_PID_BASE + procs.index(proc)
        tid = sorted(threads_by_proc[proc]).index(thread)
        out[t] = (pid, tid, proc, thread)
    return out


def to_chrome_trace(spans, messages=(), metrics=None) -> dict:
    """Build a Chrome/Perfetto ``trace_event`` document.

    Accepts a :class:`Tracer` in place of ``spans`` for convenience.
    Times are virtual seconds converted to float microseconds (``ts``
    stays unrounded so sub-µs simulator events keep full precision).
    """
    if isinstance(spans, Tracer):
        tracer = spans
        spans, messages = tracer.spans, tracer.messages
        if metrics is None:
            metrics = tracer.metrics
    pids = _pid_map(spans, messages)

    events = []
    for pid, tid, pname, tname in sorted(set(pids.values())):
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": tid,
            "args": {"name": pname},
        })
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": tname},
        })

    for s in spans:
        pid, tid, _, _ = pids[s.track]
        ev = {
            "ph": "X", "name": s.name, "cat": s.cat,
            "pid": pid, "tid": tid,
            "ts": s.start * 1e6, "dur": (s.end - s.start) * 1e6,
        }
        if s.args:
            ev["args"] = dict(s.args)
        events.append(ev)

    for i, m in enumerate(messages):
        spid, stid, _, _ = pids[m.src]
        dpid, dtid, _, _ = pids[m.dest]
        name = f"msg {tag_label(m.tag)}"
        args = {"tag": tag_label(m.tag), "nbytes": int(m.nbytes)}
        events.append({
            "ph": "s", "name": name, "cat": "msg", "id": i,
            "pid": spid, "tid": stid, "ts": m.t_send * 1e6, "args": args,
        })
        events.append({
            "ph": "f", "bp": "e", "name": name, "cat": "msg", "id": i,
            "pid": dpid, "tid": dtid, "ts": m.t_recv * 1e6, "args": args,
        })

    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "time_unit": "virtual"},
    }
    if metrics is not None:
        doc["otherData"]["metrics"] = metrics.as_dict()
    return doc


def from_chrome_trace(doc: dict):
    """Reconstruct ``(spans, messages)`` from a trace document."""
    events = doc.get("traceEvents", [])
    proc_names = {}
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "process_name":
            proc_names[ev["pid"]] = ev["args"]["name"]
    thread_names = {}
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            thread_names[(ev["pid"], ev["tid"])] = ev["args"]["name"]

    def track_of(pid, tid):
        pname = proc_names.get(pid, f"pid{pid}")
        if pname.startswith("rank ") and pid < _AUX_PID_BASE:
            return int(pname.split()[1])
        tname = thread_names.get((pid, tid), f"tid{tid}")
        return f"{pname}/{tname}"

    spans = []
    flows = {}
    for ev in events:
        ph = ev.get("ph")
        if ph == "X":
            start = ev["ts"] / 1e6
            spans.append(Span(
                track=track_of(ev["pid"], ev["tid"]),
                name=ev["name"], cat=ev.get("cat", ""),
                start=start, end=start + ev.get("dur", 0.0) / 1e6,
                args=ev.get("args"),
            ))
        elif ph in ("s", "f"):
            flows.setdefault(ev["id"], {})[ph] = ev

    messages = []
    for fid in sorted(flows):
        pair = flows[fid]
        if "s" not in pair or "f" not in pair:
            continue
        s, f = pair["s"], pair["f"]
        args = s.get("args", {})
        messages.append(MessageRecord(
            src=track_of(s["pid"], s["tid"]),
            dest=track_of(f["pid"], f["tid"]),
            tag=args.get("tag", s.get("name", "")),
            t_send=s["ts"] / 1e6, t_recv=f["ts"] / 1e6,
            nbytes=int(args.get("nbytes", 0)),
        ))
    return spans, messages


def validate_trace(doc) -> list:
    """Schema-check a trace document; returns a list of problem strings
    (empty when the document is clean).  This is what ``repro trace
    --check`` and the CI observability job run on emitted JSON."""
    problems = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents list"]
    if not events:
        problems.append("traceEvents is empty")

    named = set()
    flows = {}
    for i, ev in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M", "s", "f"):
            problems.append(f"{where}: unknown ph {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where}: {key} must be an int")
        if ph == "M":
            if ev.get("name") not in ("process_name", "thread_name"):
                problems.append(f"{where}: bad metadata name {ev.get('name')!r}")
            elif not isinstance(ev.get("args", {}).get("name"), str):
                problems.append(f"{where}: metadata args.name missing")
            elif ev["name"] == "process_name":
                named.add(ev["pid"])
            continue
        if not isinstance(ev.get("ts"), (int, float)):
            problems.append(f"{where}: ts must be a number")
        if not isinstance(ev.get("name"), str):
            problems.append(f"{where}: name must be a string")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)):
                problems.append(f"{where}: X event needs numeric dur")
            elif dur < 0:
                problems.append(f"{where}: negative dur")
        else:
            if "id" not in ev:
                problems.append(f"{where}: flow event needs id")
            else:
                flows.setdefault(ev["id"], {})[ph] = ev
            if ph == "f" and ev.get("bp") != "e":
                problems.append(f"{where}: flow finish should set bp='e'")

    for pid in sorted({ev["pid"] for ev in events
                       if isinstance(ev, dict) and isinstance(ev.get("pid"), int)}):
        if pid not in named:
            problems.append(f"pid {pid} has no process_name metadata")
    for fid in sorted(flows):
        pair = flows[fid]
        if "s" not in pair:
            problems.append(f"flow {fid}: finish without start")
        elif "f" not in pair:
            problems.append(f"flow {fid}: start without finish")
        elif pair["f"]["ts"] < pair["s"]["ts"]:
            problems.append(f"flow {fid}: finish before start")
    return problems


def render_summary(spans, messages=(), metrics=None, width: int = 72) -> str:
    """Deterministic plain-text trace summary (per-track span rollup)."""
    if isinstance(spans, Tracer):
        tracer = spans
        spans, messages = tracer.spans, tracer.messages
        if metrics is None:
            metrics = tracer.metrics

    tracks = []
    for s in spans:
        if s.track not in tracks:
            tracks.append(s.track)
    tracks = (sorted(t for t in tracks if isinstance(t, int))
              + sorted(str(t) for t in tracks if not isinstance(t, int)))

    lines = ["trace summary", "=" * len("trace summary")]
    lines.append(f"spans: {len(spans)}  messages: {len(list(messages))}")
    for track in tracks:
        mine = [s for s in spans
                if s.track == track or str(s.track) == str(track)]
        by_cat = {}
        for s in mine:
            by_cat[s.cat] = by_cat.get(s.cat, 0.0) + (s.end - s.start)
        end = max((s.end for s in mine), default=0.0)
        label = f"rank {track}" if isinstance(track, int) else str(track)
        cats = "  ".join(f"{c}={by_cat[c]:.3e}s" for c in sorted(by_cat))
        lines.append(f"{label:<16} spans={len(mine):<5d} end={end:.3e}s  {cats}")
    if metrics is not None:
        snap = metrics.as_dict()
        if snap["counters"]:
            lines.append("counters:")
            for name in sorted(snap["counters"]):
                lines.append(f"  {name} = {snap['counters'][name]:g}")
    return "\n".join(lines)
