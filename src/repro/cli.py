"""Command-line interface: ``mask-fracture`` / ``python -m repro``.

Sub-commands:

* ``fracture`` — fracture a clip file (or a built-in suite clip) with a
  chosen method, print the result and optionally write the solution
  JSON and an SVG rendering.
* ``bench`` — regenerate the paper's Table 2 or Table 3.
* ``generate`` — write the benchmark suites to clip files.
* ``figure`` — render one of the paper's Figures 1–5 as SVG.
* ``trace`` — inspect telemetry: ``summarize`` a recorded file,
  ``tail`` a live stream or a service job id (``--follow``), ``diff``
  two runs with a threshold-based regression verdict (nonzero exit on
  regression), ``export`` a correlated trace as chrome://tracing or
  speedscope JSON (:mod:`repro.obs.flame`).
* ``metrics`` — Prometheus exposition text: scrape a running daemon's
  ``metrics`` op, or render an offline telemetry file
  (:mod:`repro.obs.metrics`).
* ``top`` — live terminal dashboard over a running daemon: queue /
  worker / cache gauges folded with per-job tile progress from the
  job streams (:mod:`repro.obs.top`).
* ``serve`` — run the fracture-as-a-service daemon: a priority job
  queue over a Unix socket with warm shared caches and per-job live
  telemetry (:mod:`repro.service`).
* ``job`` — client of a running daemon: ``submit`` / ``status`` /
  ``result`` / ``cancel`` / ``list`` / ``stats`` / ``shutdown``.

Every run and job carries a trace context: ``--telemetry``/``--stream``
runs mint a trace id locally, and ``job submit`` mints one client-side
that the daemon persists on the job record — the same trace id stamps
every span, stream record, heartbeat and stored tile across worker
processes and daemon restarts, and ``trace export`` carries it into
the exported profile.  ``--profile [SECONDS]`` (with ``--telemetry``)
attaches a sampling profiler whose collapsed stacks land in the
telemetry manifest keyed by span path.

``fracture``, ``bench`` and ``mdp`` accept ``--telemetry PATH``: a
:class:`repro.obs.TelemetryRecorder` is installed for the run and the
manifest + span tree + metrics + convergence records are written to
``PATH`` (format by extension: the ``.json`` payload or the ``.csv``
convergence table).  They also accept ``--stream PATH``: the same
recorder emits every record *live* into an append-only JSONL stream
(:mod:`repro.obs.stream`) that ``trace tail --follow`` renders while
the run executes, and whose fold (``trace summarize``/``export``/
``diff``, ``metrics``) is the same payload.  ``--heartbeat SECONDS``
(tiled executor) turns on the worker heartbeat channel: per-worker
liveness, current tile and RSS/CPU samples, with stalled workers
flagged before the per-tile deadline fires.

With ``--window-nm`` the tiled executor additionally accepts the
fault-tolerance flags ``--tile-retries`` / ``--tile-timeout`` /
``--inject-fault`` (see :mod:`repro.fracture.runtime`); those flags
need ``--window-nm`` on ``mdp`` too.  Every interrupted run resumes the
same way: run it again against the same ``--fracture-cache DIR``.  Each
shape is stored there as soon as it finishes, and with ``--window-nm``
so is each settled tile and seam-stitch window; the re-run replays them
bit-identically and fractures only the rest.

``fracture``, ``mdp`` and daemon jobs run clips, and GDSII layouts their
templates, through one batch loop, :meth:`repro.mask.mdp.MdpPipeline.run`.
``fracture`` exits 0 on clip input whatever the verdict, ``mdp`` 1 when
any shape fails Eq. 4; both exit 1 on an infeasible GDSII layout and
130 when interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import threading
from pathlib import Path

from repro import obs
from repro.fracture.base import Fracturer
from repro.mask.constraints import FractureSpec
from repro.mask.io import load_clips, save_clips, save_solution
from repro.mask.shape import MaskShape
from repro.methods import make_fracturer, method_names


_INTERRUPTED = (
    "interrupted — telemetry closed; re-run against the same "
    "--fracture-cache DIR to resume"
)


def _make_fracturer(name: str) -> Fracturer:
    try:
        return make_fracturer(name)
    except ValueError as error:
        raise SystemExit(str(error)) from None


@contextlib.contextmanager
def _graceful_signals():
    """Convert SIGTERM into KeyboardInterrupt for the command's duration.

    Long ``fracture`` / ``mdp`` runs then share one shutdown path for
    Ctrl-C and ``kill``: the exception unwinds through ``_telemetry``,
    which closes the live stream with ``status="interrupted"``, and
    past the ``--fracture-cache`` store, whose finished shapes and
    settled tiles are already on disk — so a re-run against the same
    store continues bit-identically.
    Restores the previous handler; a no-op off the main thread.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _positive_int(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a whole number, got {value!r}"
        ) from None
    if parsed < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1, got {parsed}"
        )
    return parsed


def _positive_float(value: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {value!r}"
        ) from None
    if parsed <= 0.0:
        raise argparse.ArgumentTypeError(
            f"must be positive, got {parsed}"
        )
    return parsed


def _nonnegative_float(value: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {value!r}"
        ) from None
    if parsed < 0.0:
        raise argparse.ArgumentTypeError(
            f"must be non-negative, got {parsed}"
        )
    return parsed


def _fraction(value: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {value!r}"
        ) from None
    if not 0.0 < parsed <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a fraction in (0, 1], got {parsed}"
        )
    return parsed


def _runtime_policy(args: argparse.Namespace):
    """Build the tiled executor's fault-tolerance policy from CLI flags."""
    from repro.fracture.runtime import FaultPlan, RuntimePolicy

    tile_only = [
        ("--inject-fault", args.inject_fault),
        ("--tile-retries", args.tile_retries is not None),
        ("--tile-timeout", args.tile_timeout),
        ("--heartbeat", args.heartbeat),
    ]
    for flag, value in tile_only:
        if value and not args.window_nm:
            raise SystemExit(
                f"{flag} applies to the tiled executor; add --window-nm"
            )
    # One worker runs tiles inline: no deadline, no heartbeat monitor.
    for flag, value in (
        ("--tile-timeout", args.tile_timeout),
        ("--heartbeat", args.heartbeat),
    ):
        if value and args.workers < 2:
            raise SystemExit(
                f"{flag} needs a tile pool; add --workers 2 or more"
            )
    retries = 2 if args.tile_retries is None else args.tile_retries
    if retries < 0:
        raise SystemExit("--tile-retries must be 0 or more")
    fault_plan = None
    if args.inject_fault:
        try:
            fault_plan = FaultPlan.parse(args.inject_fault)
        except ValueError as error:
            raise SystemExit(str(error)) from None
    return RuntimePolicy(
        max_attempts=retries + 1,
        tile_deadline_s=args.tile_timeout,
        fault_plan=fault_plan,
        heartbeat_s=args.heartbeat,
    )


def _build_fracturer(args: argparse.Namespace):
    """The requested method, tiled when ``--window-nm`` is set, and the
    ``--fracture-cache`` store (``None`` without one).

    The batch loop stores finished shapes there, and with
    ``--window-nm`` the tile runner stores each settled tile there too:
    one DIR holds both, so an interrupted run resumes by running it
    again against the same DIR.
    """
    runtime = _runtime_policy(args)
    fracturer = _make_fracturer(args.method)
    cache = _fracture_cache(args)
    if args.window_nm:
        from repro.fracture.windowed import WindowedFracturer

        runtime.store = cache
        fracturer = WindowedFracturer(
            fracturer, window_nm=args.window_nm, workers=args.workers,
            runtime=runtime,
        )
    return fracturer, cache


def _add_window_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--window-nm", type=_positive_float, metavar="NM",
        help="tile large shapes into NM-sized 2-D windows with halo "
             "overlap, fracture per tile and stitch the seams",
    )
    parser.add_argument(
        "--workers", type=_positive_int, default=1,
        help="process-pool width: across shapes or layout templates, "
             "or across tiles of each shape when --window-nm is set",
    )


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance flags of the tiled executor (require --window-nm)."""
    parser.add_argument(
        "--tile-retries", type=int, metavar="N",
        help="retries per tile before degrading to the partition "
             "baseline (default 2)",
    )
    parser.add_argument(
        "--tile-timeout", type=_positive_float, metavar="SECONDS",
        help="per-tile deadline; an overrunning tile is killed and "
             "retried (needs --workers > 1; a run with a single tile "
             "runs it inline, with no deadline)",
    )
    parser.add_argument(
        "--inject-fault", action="append", metavar="TILE:ACTION[:TIMES]",
        help="deterministic failure injection for testing, on a tile "
             "or a seam-stitch window (v0, h1, …), e.g. 't0,0:crash', "
             "'t1,2:raise:2' or 'v0:crash' (actions: crash, hang, raise)",
    )
    parser.add_argument(
        "--heartbeat", type=_positive_float, metavar="SECONDS",
        help="worker heartbeat interval: pool workers publish liveness/"
             "tile/RSS/CPU and stalled workers are flagged before the "
             "tile deadline (needs --workers > 1)",
    )


def _add_cache_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fracture-cache", metavar="DIR",
        help="content-addressed on-disk fracture cache: results keyed by "
             "canonical geometry + spec + method + window are reused "
             "across shapes, runs and the service daemon; with "
             "--window-nm each settled tile is stored too, so re-running "
             "an interrupted run against the same DIR resumes it",
    )


def _fracture_cache(args: argparse.Namespace):
    """Build the on-disk fracture cache when ``--fracture-cache`` is set."""
    path = getattr(args, "fracture_cache", None)
    if not path:
        return None
    from repro.fracture.cache import FractureCache

    return FractureCache(max_entries=4096, persist_dir=path)


def _add_hierarchy_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--hierarchy", dest="hierarchy", action="store_true", default=True,
        help="GDSII input: fracture each unique cell geometry once and "
             "instantiate per placement (default)",
    )
    group.add_argument(
        "--flatten", dest="hierarchy", action="store_false",
        help="GDSII input: flatten all placements and fracture each "
             "polygon from scratch (reference path)",
    )


def _is_gds(path: str | None) -> bool:
    return bool(path) and Path(path).suffix.lower() in (".gds", ".gdsii")


def _guarded(args: argparse.Namespace, spec: FractureSpec, run):
    """``run()`` under graceful signals and the command's telemetry;
    ``None`` when Ctrl-C or SIGTERM stopped it."""
    try:
        with _graceful_signals(), _telemetry(args, spec):
            return run()
    except KeyboardInterrupt:
        print(_INTERRUPTED, file=sys.stderr)
        return None


def _read_input(path: str | Path, read):
    """``read(path)``; an unreadable or malformed input file exits with
    one line naming it, not a traceback."""
    try:
        return read(path)
    except OSError as error:
        raise SystemExit(f"{path}: {error.strerror or error}") from None
    except ValueError as error:
        raise SystemExit(f"{path}: {error}") from None


def _clip_shapes(
    args: argparse.Namespace, pitch: float, margin: float
) -> list[MaskShape]:
    """The clips a command names, narrowed by ``--clip`` when it has one:
    ``--clip-file`` polygons on a ``pitch`` grid padded by ``margin``,
    or the built-in ILT suite's mask-route shapes."""
    clip = getattr(args, "clip", None)
    if args.clip_file:
        if _is_gds(args.clip_file):
            raise SystemExit(
                f"{args.clip_file}: GDSII layouts run through fracture or mdp"
            )
        clips = _read_input(args.clip_file, load_clips)
        if clip and clip not in clips:
            raise SystemExit(f"clip {clip!r} not in {args.clip_file}")
        return [
            MaskShape.from_polygon(poly, pitch=pitch, margin=margin, name=name)
            for name, poly in clips.items()
            if not clip or name == clip
        ]
    from repro.bench.shapes import ilt_suite

    shapes = [s for s in ilt_suite(pitch) if not clip or s.name == clip]
    if not shapes:
        raise SystemExit(
            f"no suite clip named {clip!r}; pass --clip-file for custom clips"
        )
    return shapes


def _batch_workers(args: argparse.Namespace) -> int:
    """The batch loop's pool width: with --window-nm the worker pool
    lives inside the tile executor, across tiles of each shape."""
    return 1 if args.window_nm else args.workers


def _run_batch(
    args: argparse.Namespace, spec: FractureSpec, fracturer: Fracturer,
    cache, verbose: bool = False,
):
    """The batch loop over a ``fracture``/``mdp`` command's clips:
    ``(shapes, report)``, with ``report`` ``None`` when interrupted."""
    from repro.mask.mdp import MdpPipeline

    shapes = _clip_shapes(args, spec.pitch, spec.grid_margin)
    workers = _batch_workers(args)
    report = _guarded(args, spec, lambda: MdpPipeline(
        fracturer, spec, cache=cache,
    ).run(shapes, output_dir=args.output, workers=workers, verbose=verbose))
    return shapes, report


def _run_layout(
    args: argparse.Namespace,
    spec: FractureSpec,
    fracturer: Fracturer,
    cache,
) -> int:
    """Fracture a hierarchical GDSII layout (``fracture``/``mdp`` path)."""
    from repro.mask.gds import read_layout
    from repro.mask.hierarchy import fracture_layout

    layout = _read_input(args.clip_file, read_layout)
    report = _guarded(args, spec, lambda: fracture_layout(
        layout, fracturer, spec, cache=cache, hierarchy=args.hierarchy,
        workers=_batch_workers(args),
    ))
    if report is None:
        return 130
    print(report.summary())
    stats = report.stats
    print(
        f"cells={stats['cells']} instances={stats['polygon_instances']} "
        f"unique={stats['unique_geometries']} "
        f"cache_hits={stats['cache_hits']} "
        f"hit_rate={stats['hit_rate']:.1%}"
    )
    if getattr(args, "output", None):
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        save_solution(
            report.shots, spec,
            out / f"{layout.top or 'layout'}.solution.json",
            clip_name=layout.top,
            metadata={
                "method": fracturer.name,
                "hierarchy": {
                    k: v for k, v in stats.items() if k != "cache"
                },
            },
        )
        print(f"wrote {out / (layout.top or 'layout')}.solution.json")
    return 0 if report.all_feasible else 1


def _spec_from_args(args: argparse.Namespace) -> FractureSpec:
    return FractureSpec(
        sigma=args.sigma, gamma=args.gamma, pitch=args.pitch,
        rho=args.rho, lmin=args.lmin,
    )


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma", type=float, default=6.25, help="proximity sigma (nm)")
    parser.add_argument("--gamma", type=float, default=2.0, help="CD tolerance (nm)")
    parser.add_argument("--pitch", type=float, default=1.0, help="pixel size (nm)")
    parser.add_argument("--rho", type=float, default=0.5, help="print threshold")
    parser.add_argument("--lmin", type=float, default=10.0, help="min shot size (nm)")


def _add_telemetry_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry", metavar="PATH",
        help="record spans/metrics/convergence and write them here "
             "(.json payload or .csv convergence table)",
    )
    parser.add_argument(
        "--stream", metavar="PATH",
        help="additionally stream telemetry records live to this "
             "append-only JSONL file (watch with 'trace tail --follow')",
    )
    parser.add_argument(
        "--profile", type=_positive_float, nargs="?", const=0.01,
        metavar="SECONDS",
        help="with --telemetry/--stream: sample the main thread's stack "
             "every SECONDS (default 0.01) and attach the aggregated "
             "samples to spans ('trace export' ships them alongside "
             "the flame graph)",
    )


@contextlib.contextmanager
def _telemetry(args: argparse.Namespace, spec: FractureSpec):
    """Install a TelemetryRecorder for the command when requested.

    ``--telemetry`` writes the full payload after the run;
    ``--stream`` additionally (or on its own) emits records live.
    """
    path = getattr(args, "telemetry", None)
    stream_path = getattr(args, "stream", None)
    if path and Path(path).suffix.lower() == ".jsonl":
        raise SystemExit(
            "--telemetry writes .json or .csv; use --stream PATH.jsonl "
            "for the JSONL telemetry stream"
        )
    if not path and not stream_path:
        if getattr(args, "profile", None):
            raise SystemExit("--profile requires --telemetry or --stream")
        yield None
        return
    manifest = obs.run_manifest(spec=spec, argv=sys.argv[1:])
    # One trace context per invocation: minted here, stamped on the
    # manifest, every stream record, stored tile and worker-side span —
    # the offline twin of the service's submit-time trace.
    trace = obs.mint_trace()
    stream = (
        obs.TelemetryStream(stream_path, trace_id=trace.trace_id)
        if stream_path else None
    )
    recorder = obs.TelemetryRecorder(
        manifest=manifest, stream=stream, trace=trace
    )
    profiler = (
        obs.SamplingProfiler(recorder, interval_s=args.profile)
        if getattr(args, "profile", None) else None
    )
    status = "ok"
    try:
        with obs.recording(recorder):
            if profiler is not None:
                profiler.start()
            yield recorder
    except (KeyboardInterrupt, SystemExit):
        # Graceful shutdown (Ctrl-C or SIGTERM via _graceful_signals):
        # the stream records *why* it ends, and followers see a clean
        # terminal record instead of a torn tail.
        status = "interrupted"
        raise
    except BaseException:
        status = "error"
        raise
    finally:
        if profiler is not None:
            profiler.stop()
        if stream is not None:
            recorder.emit_metrics()
            stream.close(status)
            print(f"wrote telemetry stream to {stream_path}")
    if path:
        obs.write_telemetry(recorder.export(), path)
        print(f"wrote telemetry to {path} (trace {trace.trace_id})")


def _cmd_fracture(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    fracturer, cache = _build_fracturer(args)
    if _is_gds(args.clip_file):
        if args.svg or args.gds:
            raise SystemExit(
                "--svg/--gds are per-clip outputs; not supported for "
                "hierarchical GDSII input (use --output for the combined "
                "solution)"
            )
        if args.clip:
            raise SystemExit("--clip does not apply to GDSII layout input")
        return _run_layout(args, spec, fracturer, cache)
    shapes, report = _run_batch(args, spec, fracturer, cache)
    if report is None:
        return 130
    for shape, result in zip(shapes, report.results):
        print(result.summary())
        if args.svg:
            from repro.viz.render import render_fracture

            out = Path(args.svg)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{shape.name}.svg").write_text(
                render_fracture(shape, result.shots)
            )
        if args.gds:
            from repro.mask.gds import write_solution_gds

            out = Path(args.gds)
            out.mkdir(parents=True, exist_ok=True)
            write_solution_gds(
                shape.polygon, result.shots, out / f"{shape.name}.gds",
                cell_name=shape.name or "CLIP",
            )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Re-check a stored solution against its clip, independently."""
    from repro.mask.constraints import check_solution
    from repro.mask.io import load_solution

    shots, spec, _metadata = _read_input(args.solution, load_solution)
    # Without --clip, check the clip the solution was written for.
    args.clip = args.clip or json.loads(Path(args.solution).read_text()).get("clip")
    shapes = _clip_shapes(args, spec.pitch, spec.grid_margin)
    if len(shapes) != 1:
        raise SystemExit(f"{args.solution} names no clip; pass --clip")
    shape = shapes[0]
    report = check_solution(shots, shape, spec)
    status = "CD-clean" if report.feasible else (
        f"{report.total_failing} failing pixels "
        f"({report.count_on} under, {report.count_off} over), "
        f"{report.undersize_shots} undersize shots"
    )
    print(f"{shape.name}: {len(shots)} shots — {status}")
    return 0 if report.feasible else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.runner import run_suite
    from repro.bench.shapes import agb_suite, ilt_suite, rgb_suite
    from repro.bench.tables import format_table2, format_table3

    spec = _spec_from_args(args)
    methods = [_make_fracturer(name) for name in args.methods.split(",")]
    with _telemetry(args, spec) as recorder:
        if args.table == 2:
            suite = run_suite(
                ilt_suite(spec.pitch), methods, spec,
                compute_bounds=True, verbose=not args.quiet,
            )
            print(format_table2(suite))
        else:
            shapes = agb_suite(spec, spec.pitch) + rgb_suite(spec, spec.pitch)
            suite = run_suite(shapes, methods, spec, verbose=not args.quiet)
            print(format_table3(suite))
        if recorder is not None:
            # Per-clip phase breakdown rides along with the paper table.
            print()
            print("Per-clip phase breakdown (wall seconds):")
            print(obs.format_clip_breakdown(recorder.export()))
    return 0


def _cmd_mdp(args: argparse.Namespace) -> int:
    """Batch fracture a clip file (optionally in parallel processes)."""
    from repro.mask.mdp import MdpPipeline

    spec = _spec_from_args(args)
    fracturer, cache = _build_fracturer(args)
    if _is_gds(args.clip_file):
        if args.baseline:
            raise SystemExit(
                "--baseline is not supported for hierarchical GDSII input"
            )
        return _run_layout(args, spec, fracturer, cache)
    shapes, report = _run_batch(args, spec, fracturer, cache, verbose=True)
    if report is None:
        return 130
    print(
        f"batch: {report.total_shots} shots over {len(report.results)} shapes, "
        f"{report.feasible_count} feasible"
    )
    if args.baseline:
        reference = MdpPipeline(_make_fracturer(args.baseline), spec)
        saving = reference.projected_saving(reference.run(shapes), report)
        print(
            f"vs {args.baseline}: {saving['shot_reduction']:.1%} fewer shots "
            f"≈ {saving['mask_cost_saving_fraction']:.1%} mask cost "
            f"(${saving['mask_set_saving_usd']:,.0f}/mask set)"
        )
    return 0 if report.all_feasible else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.bench.shapes import agb_suite, ilt_suite, rgb_suite

    spec = _spec_from_args(args)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    ilt = {s.name: s.polygon for s in ilt_suite(spec.pitch)}
    save_clips(ilt, out / "ilt_suite.clips.json")
    known = {
        ko.shape.name: ko.shape.polygon
        for ko in agb_suite(spec, spec.pitch) + rgb_suite(spec, spec.pitch)
    }
    save_clips(known, out / "known_optimal.clips.json")
    print(f"wrote {len(ilt)} ILT clips and {len(known)} known-optimal clips to {out}")
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    """Render a per-phase breakdown of a recorded telemetry file."""
    payload = _load_payload(Path(args.path))
    try:
        print(obs.format_summary(payload))
        if args.clips:
            print()
            print("Per-clip phase breakdown (wall seconds):")
            print(obs.format_clip_breakdown(payload))
        sys.stdout.flush()
    except BrokenPipeError:
        return _stdout_closed()
    return 0


def _stdout_closed() -> int:
    """Exit status after a pager or ``head`` closed stdout: 0, with the
    dead stdout pointed at the null device so the interpreter's flush
    at exit raises nothing."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _record_matches(record: dict, filters: list[str]) -> bool:
    """Substring match of any filter against the record type/event name."""
    text = f"{record.get('type', '')} {record.get('name', '')}"
    return any(needle in text for needle in filters)


def _cmd_trace_tail(args: argparse.Namespace) -> int:
    """Render a telemetry stream line by line, optionally following it.

    ``path`` may also be a service job id (``job-xxxxxxxx``): it
    resolves to the job's live stream inside the daemon state directory
    (``--state-dir``), so ``trace tail job-ab12cd34 --follow`` watches
    a daemon job exactly like a ``--stream`` file.
    """
    from repro.service.jobs import resolve_stream_path

    path = resolve_stream_path(args.path, args.state_dir)
    formatter = obs.StreamFormatter()
    filters = args.filter or []
    try:
        for record in obs.follow_stream(
            path, follow=args.follow, timeout_s=args.timeout
        ):
            if filters and not _record_matches(record, filters):
                continue
            print(formatter.format(record), flush=True)
    except FileNotFoundError:
        raise SystemExit(f"no telemetry stream at {str(path)!r}") from None
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:
        return _stdout_closed()
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    """Render a correlated trace as a chrome-trace / speedscope file.

    ``path`` accepts the same inputs as ``trace tail``: a ``--telemetry``
    payload (.json), a ``--stream`` file (.jsonl) or a service job id
    (resolved against ``--state-dir``).  Chrome output loads in
    ``chrome://tracing`` / Perfetto; speedscope in speedscope.app.
    """
    from repro.service.jobs import resolve_stream_path

    path = resolve_stream_path(args.path, args.state_dir)
    payload = _load_payload(path)
    doc = (
        obs.chrome_from_payload(payload)
        if args.format == "chrome"
        else obs.speedscope_from_payload(payload)
    )
    suffix = ".chrome.json" if args.format == "chrome" else ".speedscope.json"
    out = Path(args.out) if args.out else path.with_suffix(suffix)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1))
    if args.format == "chrome":
        summary = obs.validate_chrome_trace(doc)
        print(
            f"wrote {out} ({summary['spans']} spans, "
            f"{summary['instants']} instants, {summary['lanes']} lanes"
            + (f", trace {summary['trace_id']}" if summary['trace_id']
               else "")
            + ")"
        )
    else:
        print(f"wrote {out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Prometheus exposition text: scrape a daemon or render a file."""
    if args.path:
        payload = _load_payload(Path(args.path))
        print(obs.render_prometheus(obs.payload_samples(payload)), end="")
        return 0

    def run(client) -> int:
        print(client.metrics(), end="")
        return 0

    return _run_client_op(args, run)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over the daemon: stats + job streams, refreshing."""
    import time as _time

    from repro.service.client import ServiceError
    from repro.service.jobs import JobPaths

    client = _service_client(args)

    def frame() -> str:
        stats = client.stats()
        jobs = client.list_jobs()
        progress = {}
        for job in jobs:
            if job.get("state") not in ("running", "queued"):
                continue
            stream = JobPaths.for_job(args.state_dir, job["job_id"]).stream
            records = obs.tail_records(stream)
            if records:
                progress[job["job_id"]] = obs.gather_job_progress(records)
        return obs.render_top(stats, jobs, progress)

    try:
        if args.once:
            print(frame())
            return 0
        while True:
            text = frame()
            # Clear + home, then one frame; plain ANSI keeps this
            # dependency-free and scrollback-friendly under watch(1).
            sys.stdout.write("\x1b[H\x1b[2J" + text + "\n")
            sys.stdout.flush()
            _time.sleep(args.interval)
    except ServiceError as error:
        raise SystemExit(f"service error [{error.code}]: {error}") from None
    except KeyboardInterrupt:
        return 130


def _load_payload(path: Path) -> dict:
    """A telemetry payload: a ``.json`` export or a folded ``.jsonl``
    stream (any other JSON document loads as is)."""
    return _read_input(path, obs.load_telemetry)


def _load_diffable(path: str) -> dict:
    """Load one ``trace diff`` input: a telemetry payload or stream."""
    if not Path(path).exists():
        raise SystemExit(f"no such file: {path!r}")
    payload = _load_payload(Path(path))
    try:
        obs.payload_metrics(payload)
    except ValueError as error:
        raise SystemExit(f"{path}: {error}") from None
    return payload


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    """Compare two runs; exit nonzero when a metric regresses."""
    base = _load_diffable(args.base)
    head = _load_diffable(args.head)
    thresholds = obs.DiffThresholds(
        time_rel=args.time_rel,
        time_abs_floor_s=args.time_abs,
        count_rel=args.count_rel,
    )
    result = obs.diff_payloads(base, head, thresholds)
    print(obs.format_diff(
        result,
        base_label=Path(args.base).name,
        head_label=Path(args.head).name,
        show_all=args.all,
    ))
    return 1 if result.regressed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the fracture-as-a-service daemon until SIGTERM/SIGINT."""
    import asyncio

    from repro.service.caches import WarmCaches
    from repro.service.guard import ServiceLimits
    from repro.service.server import FractureService

    limits = ServiceLimits()
    overrides = {
        "max_clips": args.max_clips,
        "max_clip_vertices": args.max_clip_vertices,
        "max_total_vertices": args.max_total_vertices,
        "read_deadline_s": args.read_deadline,
        "idle_timeout_s": args.idle_timeout,
        "rate_per_s": args.rate_limit,
        "rate_burst": args.rate_burst,
        "queue_share": args.queue_share,
        "job_wall_budget_s": args.job_wall_budget,
        "job_rss_budget_bytes": (
            None if args.job_rss_budget_mb is None
            else int(args.job_rss_budget_mb * 1024 * 1024)
        ),
        "watchdog_interval_s": args.watchdog_interval,
        "disk_floor_bytes": (
            None if args.disk_floor_mb is None
            else int(args.disk_floor_mb * 1024 * 1024)
        ),
    }
    for name, value in overrides.items():
        if value is not None:
            setattr(limits, name, value)
    limits.degrade_over_budget = bool(args.degrade_over_budget)
    try:
        limits.validated()
    except ValueError as error:
        raise SystemExit(f"invalid --limits: {error}") from None
    caches = None
    if getattr(args, "fracture_cache", None):
        caches = WarmCaches(
            persist_dir=args.fracture_cache,
            min_free_bytes=limits.disk_floor_bytes,
        )
    service = FractureService(
        args.state_dir,
        workers=args.workers,
        max_queue_depth=args.queue_depth,
        caches=caches,
        limits=limits,
    )

    async def _serve() -> None:
        await service.start()
        recovered = service.recovered
        print(
            f"fracture daemon pid={os.getpid()} "
            f"listening on {service.socket_path} "
            f"(workers={service.workers}, "
            f"recovered {recovered['queued']} queued / "
            f"{recovered['resumed']} resumed)",
            flush=True,
        )
        await service.run_until_shutdown()

    try:
        asyncio.run(_serve())
    except RuntimeError as error:
        raise SystemExit(str(error)) from None
    print("fracture daemon stopped", flush=True)
    return 0


def _service_client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(args.state_dir)


def _run_client_op(args: argparse.Namespace, op) -> int:
    """Run one client operation with uniform daemon-error reporting."""
    from repro.service.client import ServiceError

    try:
        return op(_service_client(args))
    except ServiceError as error:
        raise SystemExit(f"service error [{error.code}]: {error}") from None


def _cmd_job_submit(args: argparse.Namespace) -> int:
    # Only the polygons travel; the daemon places them on its own grid.
    clips = {
        shape.name: [[p.x, p.y] for p in shape.polygon.vertices]
        for shape in _clip_shapes(args, args.pitch, margin=0.0)
    }
    spec = {
        "sigma": args.sigma, "gamma": args.gamma, "pitch": args.pitch,
        "rho": args.rho, "lmin": args.lmin,
    }

    def run(client) -> int:
        job_id = client.submit(
            clips,
            name=args.name,
            method=args.method,
            priority=args.priority,
            window_nm=args.window_nm,
            tile_workers=args.workers,
            spec=spec,
            use_result_cache=not args.no_cache,
        )
        print(job_id)
        print(
            f"  {len(clips)} clips, method={args.method}, "
            f"priority={args.priority}; "
            f"watch: trace tail {job_id} --follow "
            f"--state-dir {args.state_dir}",
            file=sys.stderr,
        )
        if args.wait:
            job = client.wait(job_id, timeout_s=args.wait)
            print(
                f"  {job['state']}: {job.get('summary', {})}",
                file=sys.stderr,
            )
            return 0 if job["state"] == "done" else 1
        return 0

    return _run_client_op(args, run)


def _cmd_job_status(args: argparse.Namespace) -> int:
    def run(client) -> int:
        job = client.status(args.job_id)
        print(json.dumps(job, indent=1))
        return 0

    return _run_client_op(args, run)


def _cmd_job_result(args: argparse.Namespace) -> int:
    def run(client) -> int:
        result = client.result(args.job_id)
        if args.output:
            from repro.mask.io import rect_from_list, spec_from_dict

            out = Path(args.output)
            out.mkdir(parents=True, exist_ok=True)
            spec = spec_from_dict(result["spec"])
            for name, clip in result["clips"].items():
                save_solution(
                    [rect_from_list(s) for s in clip["shots"]],
                    spec, out / f"{name}.solution.json", clip_name=name,
                    # The batch loop's keys, then the job's own.
                    metadata={
                        "method": clip["method"],
                        "runtime_s": clip["runtime_s"],
                        "failing_pixels": clip["failing_px"],
                        "job_id": result["job_id"],
                        "cached": clip["cached"],
                    },
                )
            print(f"wrote {len(result['clips'])} solutions to {out}",
                  file=sys.stderr)
        if args.json:
            print(json.dumps(result, indent=1))
        else:
            totals = result["totals"]
            cached = totals["cached_clips"]
            print(
                f"{result['job_id']}: {totals['clips']} clips, "
                f"{totals['shots']} shots, "
                f"feasible={totals['feasible']}"
                + (f", {cached} from warm cache" if cached else "")
            )
        return 0

    return _run_client_op(args, run)


def _cmd_job_cancel(args: argparse.Namespace) -> int:
    def run(client) -> int:
        response = client.cancel(args.job_id)
        state = response["state"]
        suffix = " (stop requested)" if response.get("cancelling") else ""
        print(f"{args.job_id}: {state}{suffix}")
        return 0

    return _run_client_op(args, run)


def _cmd_job_list(args: argparse.Namespace) -> int:
    def run(client) -> int:
        jobs = client.list_jobs()
        if args.json:
            print(json.dumps(jobs, indent=1))
            return 0
        for job in jobs:
            summary = job.get("summary") or {}
            shots = summary.get("shots", "-")
            print(
                f"{job['job_id']}  {job['state']:<9s}  "
                f"prio={job['priority']:<3d} "
                f"clips={len(job['spec'].get('clip_names', []))} "
                f"shots={shots}"
            )
        return 0

    return _run_client_op(args, run)


def _cmd_job_stats(args: argparse.Namespace) -> int:
    def run(client) -> int:
        print(json.dumps(client.stats(), indent=1))
        return 0

    return _run_client_op(args, run)


def _cmd_job_shutdown(args: argparse.Namespace) -> int:
    def run(client) -> int:
        response = client.shutdown(args.mode)
        print(
            f"shutdown requested (mode={response['mode']}, "
            f"{response['running']} running)"
        )
        return 0

    return _run_client_op(args, run)


def _add_state_dir_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--state-dir", default=".repro-service", metavar="DIR",
        help="daemon state directory (default .repro-service)",
    )


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.bench.figures import render_figure

    spec = _spec_from_args(args)
    svg = render_figure(args.number, spec)
    out = Path(args.output or f"figure{args.number}.svg")
    out.write_text(svg)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mask-fracture",
        description="Model-based mask fracturing (DAC 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fracture = sub.add_parser("fracture", help="fracture clips")
    p_fracture.add_argument("--method", default="ours", help=str(method_names()))
    p_fracture.add_argument(
        "--clip-file",
        help="clip JSON, or a hierarchical GDSII layout (.gds) "
             "(default: built-in ILT suite)",
    )
    p_fracture.add_argument("--clip", help="single clip name")
    p_fracture.add_argument("--output", help="directory for solution JSON files")
    p_fracture.add_argument("--svg", help="directory for SVG renderings")
    p_fracture.add_argument("--gds", help="directory for GDSII solution files")
    _add_window_arguments(p_fracture)
    _add_runtime_arguments(p_fracture)
    _add_cache_argument(p_fracture)
    _add_hierarchy_arguments(p_fracture)
    _add_spec_arguments(p_fracture)
    _add_telemetry_argument(p_fracture)
    p_fracture.set_defaults(func=_cmd_fracture)

    p_verify = sub.add_parser("verify", help="re-check a stored solution")
    p_verify.add_argument("solution", help="solution JSON file")
    p_verify.add_argument("--clip-file", help="clip JSON (default: built-in suite)")
    p_verify.add_argument("--clip", help="clip name inside the clip file/suite")
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="regenerate a paper table")
    p_bench.add_argument("--table", type=int, choices=(2, 3), required=True)
    p_bench.add_argument(
        "--methods", default="gsc,mp,proto-eda,ours",
        help="comma-separated method list",
    )
    p_bench.add_argument("--quiet", action="store_true")
    _add_spec_arguments(p_bench)
    _add_telemetry_argument(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_mdp = sub.add_parser("mdp", help="batch fracture a clip file")
    p_mdp.add_argument(
        "clip_file", help="clip JSON file, or a hierarchical GDSII layout (.gds)"
    )
    p_mdp.add_argument("--method", default="ours")
    p_mdp.add_argument("--baseline", help="compare economics against this method")
    _add_window_arguments(p_mdp)
    _add_runtime_arguments(p_mdp)
    _add_cache_argument(p_mdp)
    _add_hierarchy_arguments(p_mdp)
    p_mdp.add_argument("--output", help="directory for solution JSON files")
    _add_spec_arguments(p_mdp)
    _add_telemetry_argument(p_mdp)
    p_mdp.set_defaults(func=_cmd_mdp)

    p_trace = sub.add_parser("trace", help="inspect a telemetry file")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_summarize = trace_sub.add_parser(
        "summarize",
        help="per-phase time breakdown of a --telemetry or --stream file"
    )
    p_summarize.add_argument("path", help="telemetry file (.json or .jsonl)")
    p_summarize.add_argument(
        "--clips", action="store_true",
        help="also print the per-clip phase table (bench telemetry)",
    )
    p_summarize.set_defaults(func=_cmd_trace_summarize)
    p_tail = trace_sub.add_parser(
        "tail", help="render a --stream telemetry file line by line"
    )
    p_tail.add_argument(
        "path",
        help="telemetry stream (.jsonl) or a service job id (job-xxxxxxxx)",
    )
    _add_state_dir_argument(p_tail)
    p_tail.add_argument(
        "--follow", "-f", action="store_true",
        help="keep reading appended records until the stream ends",
    )
    p_tail.add_argument(
        "--filter", action="append", metavar="SUBSTRING",
        help="only show records whose type/event name contains SUBSTRING "
             "(repeatable; e.g. --filter progress --filter stalled)",
    )
    p_tail.add_argument(
        "--timeout", type=_positive_float, metavar="SECONDS",
        help="with --follow, stop waiting after SECONDS of run time",
    )
    p_tail.set_defaults(func=_cmd_trace_tail)
    p_diff = trace_sub.add_parser(
        "diff", help="compare two telemetry runs for regressions"
    )
    p_diff.add_argument("base", help="baseline file (.json/.jsonl)")
    p_diff.add_argument("head", help="candidate file (.json/.jsonl)")
    p_diff.add_argument(
        "--time-rel", type=_positive_float, default=0.30, metavar="FRAC",
        help="relative wall-time increase that gates (default 0.30)",
    )
    p_diff.add_argument(
        "--time-abs", type=_positive_float, default=0.05, metavar="SECONDS",
        help="absolute wall-time floor below which deltas never gate "
             "(default 0.05)",
    )
    p_diff.add_argument(
        "--count-rel", type=_positive_float, default=0.01, metavar="FRAC",
        help="relative increase gating quality counts like shot totals "
             "(default 0.01)",
    )
    p_diff.add_argument(
        "--all", action="store_true",
        help="list every shared metric, not just the changed ones",
    )
    p_diff.set_defaults(func=_cmd_trace_diff)
    p_export = trace_sub.add_parser(
        "export",
        help="export a trace as chrome://tracing or speedscope JSON",
    )
    p_export.add_argument(
        "path",
        help="telemetry file (.json/.jsonl) or a service job id "
             "(job-xxxxxxxx)",
    )
    _add_state_dir_argument(p_export)
    p_export.add_argument(
        "--format", choices=("chrome", "speedscope"), default="chrome",
        help="output flavour (default chrome)",
    )
    p_export.add_argument(
        "--out", metavar="PATH",
        help="output file (default: input with .chrome.json / "
             ".speedscope.json suffix)",
    )
    p_export.set_defaults(func=_cmd_trace_export)

    p_metrics = sub.add_parser(
        "metrics",
        help="Prometheus exposition text from a daemon or telemetry file",
    )
    p_metrics.add_argument(
        "path", nargs="?",
        help="telemetry file (.json/.jsonl); omit to scrape a running "
             "daemon's metrics op",
    )
    _add_state_dir_argument(p_metrics)
    p_metrics.set_defaults(func=_cmd_metrics)

    p_top = sub.add_parser(
        "top", help="live dashboard for a running fracture daemon"
    )
    _add_state_dir_argument(p_top)
    p_top.add_argument(
        "--interval", type=_positive_float, default=2.0, metavar="SECONDS",
        help="refresh period (default 2.0)",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (no screen clearing)",
    )
    p_top.set_defaults(func=_cmd_top)

    p_serve = sub.add_parser(
        "serve", help="run the fracture job daemon (fracture-as-a-service)"
    )
    _add_state_dir_argument(p_serve)
    p_serve.add_argument(
        "--workers", type=_positive_int, default=2,
        help="concurrent job slots (default 2)",
    )
    p_serve.add_argument(
        "--queue-depth", type=_positive_int, default=64,
        help="bounded queue depth; submissions beyond it are rejected "
             "with a queue_full error (default 64)",
    )
    limits_group = p_serve.add_argument_group(
        "limits",
        "admission / budget knobs of the guard layer; nonsense values "
        "(negative budgets, zero timeouts) are rejected here, not "
        "surfaced as daemon misbehaviour",
    )
    limits_group.add_argument(
        "--max-clips", type=_positive_int, default=None, metavar="N",
        help="reject submissions with more clips than N",
    )
    limits_group.add_argument(
        "--max-clip-vertices", type=_positive_int, default=None, metavar="N",
        help="reject submissions where any clip has more than N vertices",
    )
    limits_group.add_argument(
        "--max-total-vertices", type=_positive_int, default=None, metavar="N",
        help="reject submissions totalling more than N vertices",
    )
    limits_group.add_argument(
        "--read-deadline", type=_positive_float, default=None,
        metavar="SECONDS",
        help="close connections that stall mid-request for this long "
             "(default 30)",
    )
    limits_group.add_argument(
        "--idle-timeout", type=_positive_float, default=None,
        metavar="SECONDS",
        help="close connections idle between requests for this long "
             "(default 300)",
    )
    limits_group.add_argument(
        "--rate-limit", type=_positive_float, default=None, metavar="PER_S",
        help="per-client submit rate (token bucket); off by default",
    )
    limits_group.add_argument(
        "--rate-burst", type=_positive_int, default=None, metavar="N",
        help="token-bucket burst capacity (default 20)",
    )
    limits_group.add_argument(
        "--queue-share", type=_fraction, default=None, metavar="FRAC",
        help="max fraction of the queue one client may hold (fair share)",
    )
    limits_group.add_argument(
        "--job-wall-budget", type=_positive_float, default=None,
        metavar="SECONDS",
        help="cancel jobs running longer than this (typed over_budget "
             "failure)",
    )
    limits_group.add_argument(
        "--job-rss-budget-mb", type=_positive_float, default=None,
        metavar="MB",
        help="cancel running jobs once the daemon process's RSS exceeds "
             "this (read from the job heartbeats, which the daemon writes; "
             "tile-pool workers are not counted, so crossing it flags "
             "every running job at once)",
    )
    limits_group.add_argument(
        "--watchdog-interval", type=_positive_float, default=None,
        metavar="SECONDS",
        help="budget enforcement pass interval (default 1)",
    )
    limits_group.add_argument(
        "--degrade-over-budget", action="store_true",
        help="requeue over-budget jobs once on the partition baseline "
             "instead of failing them",
    )
    limits_group.add_argument(
        "--disk-floor-mb", type=_nonnegative_float, default=None,
        metavar="MB",
        help="when free space drops below this, fail result writes "
             "(typed disk_full failure) and evict LRU cache entries, "
             "then skip cache and tile-store writes",
    )
    _add_cache_argument(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_job = sub.add_parser("job", help="talk to a running fracture daemon")
    job_sub = p_job.add_subparsers(dest="job_command", required=True)

    p_submit = job_sub.add_parser("submit", help="enqueue a fracture job")
    _add_state_dir_argument(p_submit)
    p_submit.add_argument("--clip-file", help="clip JSON (default: built-in ILT suite)")
    p_submit.add_argument("--clip", help="single clip name")
    p_submit.add_argument("--name", default="", help="free-form job label")
    p_submit.add_argument("--method", default="ours", help=str(method_names()))
    p_submit.add_argument(
        "--priority", type=int, default=0,
        help="higher runs first; FIFO within a priority (default 0)",
    )
    p_submit.add_argument(
        "--window-nm", type=_positive_float, metavar="NM",
        help="tile large shapes into NM-sized windows (tiled executor)",
    )
    p_submit.add_argument(
        "--workers", type=_positive_int, default=1,
        help="tile-executor pool width inside the job (with --window-nm)",
    )
    p_submit.add_argument(
        "--no-cache", action="store_true",
        help="bypass the daemon's content-addressed result cache",
    )
    p_submit.add_argument(
        "--wait", type=_positive_float, nargs="?", const=3600.0,
        metavar="SECONDS",
        help="block until the job settles (optionally capped at SECONDS)",
    )
    _add_spec_arguments(p_submit)
    p_submit.set_defaults(func=_cmd_job_submit)

    p_status = job_sub.add_parser("status", help="one job's full record")
    _add_state_dir_argument(p_status)
    p_status.add_argument("job_id")
    p_status.set_defaults(func=_cmd_job_status)

    p_result = job_sub.add_parser("result", help="fetch a finished job")
    _add_state_dir_argument(p_result)
    p_result.add_argument("job_id")
    p_result.add_argument("--json", action="store_true", help="full payload")
    p_result.add_argument("--output", help="write per-clip solution JSON here")
    p_result.set_defaults(func=_cmd_job_result)

    p_cancel = job_sub.add_parser("cancel", help="cancel a queued/running job")
    _add_state_dir_argument(p_cancel)
    p_cancel.add_argument("job_id")
    p_cancel.set_defaults(func=_cmd_job_cancel)

    p_list = job_sub.add_parser("list", help="all known jobs, newest first")
    _add_state_dir_argument(p_list)
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=_cmd_job_list)

    p_stats = job_sub.add_parser(
        "stats", help="daemon gauges: queue, workers, warm caches"
    )
    _add_state_dir_argument(p_stats)
    p_stats.set_defaults(func=_cmd_job_stats)

    p_shutdown = job_sub.add_parser("shutdown", help="stop the daemon")
    _add_state_dir_argument(p_shutdown)
    p_shutdown.add_argument(
        "--mode", choices=("drain", "interrupt"), default="drain",
        help="drain finishes running jobs; interrupt stops them at the "
             "next tile or clip and requeues them for the next daemon "
             "(default drain)",
    )
    p_shutdown.set_defaults(func=_cmd_job_shutdown)

    p_generate = sub.add_parser("generate", help="write benchmark clip files")
    p_generate.add_argument("--output", default="clips")
    _add_spec_arguments(p_generate)
    p_generate.set_defaults(func=_cmd_generate)

    p_figure = sub.add_parser("figure", help="render a paper figure as SVG")
    p_figure.add_argument("number", type=int, choices=range(1, 6))
    p_figure.add_argument("--output")
    _add_spec_arguments(p_figure)
    p_figure.set_defaults(func=_cmd_figure)
    return parser


def main(argv: list[str] | None = None) -> int:
    # The CLI is the interactive surface: opt into the library's (by
    # default silent) logging so progress lands on stderr.
    obs.enable_console_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
