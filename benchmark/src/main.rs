//! The linkcast benchmark: a three-broker TCP chain over loopback, driven
//! through the public client API with `BrokerConfig::localhost` defaults
//! (plus `storage` on `durable_churn`), every delivery checked against a
//! linear-scan oracle.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload match_heavy --seed 1 --seconds 40 --trace 0
//! ```
//!
//! A run sets the cluster up (several times when `--trace 0`; `setup_s` is
//! the median), then measures ten interleaved rounds, each a closed-loop
//! phase cut into ten windows, an open-loop window at the workload's fixed
//! offered rate and (without a churn thread) 100 paced subscription
//! changes; the closed-loop phases get three quarters of `--seconds`, the
//! open-loop windows the rest. Closed-loop figures are the median over all
//! hundred windows and open-loop ones the median over rounds, so a burst of
//! machine noise moves a few windows rather than one metric.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` is the separate
//! traced run: one set-up, spans recorded in every other closed-loop window
//! (the throughput gap to the untraced windows is the tracing overhead) and
//! in every open-loop window, then the single-layer replays; it reports the
//! per-layer metrics and writes every span to
//! `benchmark/.work/trace_<workload>.jsonl`. Both print a table of every
//! metric with its unit and a run record (also written to
//! `benchmark/.work/`).
//!
//! `BENCHMARK.json` names `match_heavy` and `fanout_light`. `durable_churn`
//! runs the same way but is left out of it: its fsync-gated figures move
//! with the shared disk by more than any bound worth enforcing.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The process exits
//! non-zero when the oracle finds a missing, duplicate or spurious
//! delivery or a call fails.

mod cpu;
mod layers;
mod live;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

use cpu::Role;
use layers::median;
use workload::Spec;

/// Interleaved rounds of closed loop, open loop and subscription changes.
const ROUNDS: usize = 10;
/// Measurement windows per closed-loop phase.
const SLICES: usize = 10;
/// Share of `--seconds` spent in closed loop; open loop gets the rest.
const CLOSED_SHARE: f64 = 0.75;
/// An untraced run sets up at least `SETUP_REPS` times and until the
/// set-ups took `SETUP_BUDGET`, at most `MAX_SETUPS` times; `setup_s` is
/// the median.
const SETUP_REPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_secs(4);
const MAX_SETUPS: usize = 15;
/// Events per layer replay batch.
const REPLAY_EVENTS: usize = 256;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workload::spec(&args.workload).is_none() {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|s| s.name).collect();
        return Err(format!("--workload must be one of {names:?}"));
    }
    if args.seconds < 2.0 {
        return Err("--seconds must be at least 2".into());
    }
    Ok(args)
}

/// Linear-interpolated percentile `p` (0..=100) of `v`.
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// The filesystem type of the mount holding `path`, from mountinfo.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best = (0usize, "unknown".to_string());
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (
                mount.len(),
                fields.get(dash + 1).unwrap_or(&"unknown").to_string(),
            );
        }
    }
    best.1
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = workload::spec(&args.workload).expect("checked in parse_args");
    let work = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    let scratch = work.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("benchmark: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let outcome = run(&args, &spec, &work, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload; `Ok(correct)` once the result line is printed.
fn run(args: &Args, spec: &Spec, work: &Path, scratch: &Path) -> Result<bool, String> {
    trace::now_ns();
    let registry = workload::registry();
    let (fabric, brokers, roles) = live::topology(spec);
    let decoy_base = args.seed % 1_000_003 * 4096;
    let entries = workload::table(spec, &roles, decoy_base);
    let subs = workload::subscriptions(&registry, &brokers, &entries);
    let oracle = workload::Oracle::new(&registry, &entries, &subs);
    let generator = workload::Generator::new(spec, args.seed, std::sync::Arc::clone(&registry));
    let plan = live::Plan {
        rounds: ROUNDS,
        closed: Duration::from_secs_f64(args.seconds * CLOSED_SHARE / ROUNDS as f64),
        slices: SLICES,
        open: Duration::from_secs_f64(args.seconds * (1.0 - CLOSED_SHARE) / ROUNDS as f64),
        traced: args.trace,
    };

    // Set up at least `SETUP_REPS` times and for at least `SETUP_BUDGET`,
    // keeping the last cluster for the load.
    let mut setups = Vec::new();
    let mut spent = 0.0;
    // Resident memory once the first cluster has converged: what the
    // subscription state costs, before any load or earlier set-up's
    // allocator leftovers.
    let mut setup_rss = 0.0;
    let cluster = loop {
        let (c, secs) = live::start(
            spec, &registry, &fabric, &brokers, &roles, &entries, scratch,
        )?;
        if setups.is_empty() {
            setup_rss = cpu::memory_mb("VmRSS:");
        }
        setups.push(secs);
        spent += secs;
        let enough = setups.len() >= SETUP_REPS && spent >= SETUP_BUDGET.as_secs_f64();
        if args.trace || enough || setups.len() >= MAX_SETUPS {
            break c;
        }
        c.shutdown();
    };
    let (live, cluster) = live::run(cluster, spec, generator, oracle, &plan, args.seed);
    cluster.shutdown();

    let sub_changes = live.sub_changes.len() as u64;
    let changes = |subscribe: bool| -> Vec<f64> {
        live.sub_changes
            .iter()
            .filter(|(s, _)| *s == subscribe)
            .map(|(_, us)| *us)
            .collect()
    };
    let (subscribe_us, unsubscribe_us) = (changes(true), changes(false));
    let all_changes: Vec<f64> = live.sub_changes.iter().map(|x| x.1).collect();
    let attempted = live.published + sub_changes;
    let failed =
        live.missing + live.duplicate + live.spurious + live.decoy_deliveries + live.errors;
    // Every round ran to the end and completed events in its closed loop.
    let correct = failed == 0
        && live.windows.len() == ROUNDS * SLICES
        && live
            .windows
            .chunks(SLICES)
            .all(|round| round.iter().any(|w| w.completed > 0));
    let failed_share = failed as f64 / attempted.max(1) as f64;
    // A percentile of each round's open-loop latencies, median over rounds.
    let latency = |p: f64| median(live.latency_us.iter().map(|r| percentile(r, p)).collect());
    let broker_roles = [Role::EngineLoop, Role::Outbox, Role::Transport, Role::Other];
    // Figures too noisy on a shared machine to bound a change by (they
    // move with how fast the host wakes idle threads): printed here, and
    // all but the peak memory reported as per-layer client metrics by the
    // traced run (whose own peak memory holds every span).
    let tails = [
        metric("latency_p50_us", latency(50.0), "us"),
        metric("latency_p99_us", latency(99.0), "us"),
        metric("subscribe_p50_us", percentile(&subscribe_us, 50.0), "us"),
        metric(
            "unsubscribe_p50_us",
            percentile(&unsubscribe_us, 50.0),
            "us",
        ),
        metric("sub_change_p99_us", percentile(&all_changes, 99.0), "us"),
        metric("peak_rss_mb", cpu::memory_mb("VmHWM:"), "MiB"),
    ];

    let mut spans = live.spans;
    let metrics: Vec<Metric> = if !args.trace {
        let w = &live.windows;
        vec![
            metric(
                "throughput_eps",
                median(w.iter().map(|w| w.throughput()).collect()),
                "1/s",
            ),
            metric(
                "broker_cpu_us_per_event",
                median(w.iter().map(|w| w.cpu_us(&broker_roles)).collect()),
                "us",
            ),
            metric("setup_s", median(setups.clone()), "s"),
            metric("setup_rss_mb", setup_rss, "MiB"),
        ]
    } else {
        let (plain, traced): (Vec<_>, Vec<_>) = live.windows.iter().partition(|w| !w.traced);
        let per_event = |f: &dyn Fn(&live::Counters) -> u64| {
            let num: u64 = traced.iter().map(|w| f(&w.counters)).sum();
            let den: u64 = traced.iter().map(|w| w.completed).sum();
            num as f64 / den.max(1) as f64
        };
        let per_match = |f: &dyn Fn(&live::Counters) -> u64| {
            let num: u64 = traced.iter().map(|w| f(&w.counters)).sum();
            let den: u64 = traced.iter().map(|w| w.counters.match_events).sum();
            num as f64 / den.max(1) as f64
        };
        let cpu_of = |role: Role| median(traced.iter().map(|w| w.cpu_us(&[role])).collect());
        let t = &live.totals;
        let overhead = median(plain.iter().map(|w| w.throughput()).collect())
            / median(traced.iter().map(|w| w.throughput()).collect()).max(1e-9)
            - 1.0;
        let events: Vec<_> = {
            let mut g = workload::Generator::new(spec, args.seed, std::sync::Arc::clone(&registry));
            (0..REPLAY_EVENTS as u64).map(|s| g.event(s, 0)).collect()
        };
        trace::ON.store(true, Ordering::Relaxed);
        let l = layers::replay(
            &registry, &fabric, &brokers, &subs, &events, scratch, &mut spans,
        )
        .map_err(|e| format!("storage replay: {e}"))?;
        vec![
            metric(
                "broker.engine_loop.cpu_us_per_event",
                cpu_of(Role::EngineLoop),
                "us",
            ),
            metric("broker.outbox.cpu_us_per_event", cpu_of(Role::Outbox), "us"),
            metric(
                "broker.transport.cpu_us_per_event",
                cpu_of(Role::Transport),
                "us",
            ),
            metric("broker.other.cpu_us_per_event", cpu_of(Role::Other), "us"),
            metric(
                "broker.outbox.queued_frames_max",
                live.queued_frames_max as f64,
                "count",
            ),
            metric(
                "broker.node.forwards_per_event",
                per_event(&|c| c.forwarded),
                "count",
            ),
            metric(
                "broker.node.deliveries_per_event",
                per_event(&|c| c.delivered),
                "count",
            ),
            metric("broker.node.retransmitted", t.retransmitted as f64, "count"),
            metric(
                "broker.node.dropped_spool_overflow",
                t.dropped_spool_overflow as f64,
                "count",
            ),
            metric(
                "broker.node.evicted_slow_consumers",
                t.evicted_slow_consumers as f64,
                "count",
            ),
            metric(
                "broker.node.protocol_errors",
                t.protocol_errors as f64,
                "count",
            ),
            metric(
                "core.arena.steps_per_event",
                per_match(&|c| c.steps),
                "count",
            ),
            metric(
                "core.arena.comparisons_per_event",
                per_match(&|c| c.comparisons),
                "count",
            ),
            metric(
                "core.cache.hit_ratio",
                t.cache_hits as f64 / (t.cache_hits + t.cache_misses).max(1) as f64,
                "share",
            ),
            metric("core.engine.match_ns_per_event", l.match_ns, "ns"),
            metric("broker.engine.route_ns_per_event", l.route_ns, "ns"),
            metric("core.engine.subscribe_us", l.subscribe_us, "us"),
            metric("core.engine.unsubscribe_us", l.unsubscribe_us, "us"),
            metric("types.wire.event_encode_ns", l.encode_ns, "ns"),
            metric("types.wire.event_decode_ns", l.decode_ns, "ns"),
            metric("types.wire.event_bytes", l.event_bytes, "bytes"),
            metric("broker.protocol.frame_decode_ns", l.frame_decode_ns, "ns"),
            metric(
                "broker.storage.wal_records_per_event",
                per_event(&|c| c.wal_appends),
                "count",
            ),
            metric("broker.storage.append_sync_us", l.append_sync_us, "us"),
            metric(
                "broker.storage.snapshots_per_sub_change",
                t.snapshot_writes as f64 / sub_changes.max(1) as f64,
                "count",
            ),
            metric(
                "broker.storage.snapshot_write_ms",
                l.snapshot_write_ms,
                "ms",
            ),
            metric("client.latency_p50_us", tails[0].value, "us"),
            metric("client.latency_p99_us", tails[1].value, "us"),
            metric("client.subscribe_p50_us", tails[2].value, "us"),
            metric("client.unsubscribe_p50_us", tails[3].value, "us"),
            metric("client.sub_change_p99_us", tails[4].value, "us"),
            metric("loadgen.late_p99_us", percentile(&live.late_us, 99.0), "us"),
            metric("loadgen.cpu_us_per_event", cpu_of(Role::Loadgen), "us"),
            metric("loadgen.repeat_share", live.repeat_share, "share"),
            metric("trace.overhead_pct", overhead * 100.0, "%"),
        ]
    };

    if args.trace {
        let path = work.join(format!("trace_{}.jsonl", spec.name));
        spans
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    // Human-readable table: every metric by name and unit.
    println!(
        "workload {} seed {} trace {}",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    for m in metrics
        .iter()
        .chain(if args.trace { &[][..] } else { &tails[..] })
    {
        println!("  {:<42} {:>14.3} {}", m.name, m.value, m.unit);
    }
    println!("  {:<42} {:>14.6} share", "failed_share", failed_share);

    // The run record, written beside the metrics.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"kernel\":\"{}\",\"wal_filesystem\":\"{}\",\"transport\":\"loopback TCP\",\"open_loop_rate_eps\":{},\"closed_loop_window\":{},\"churn_per_sec\":{},\"rounds\":{},\"throughput_per_window\":{:?},\"latency_p50_per_round\":{:?},\"setup_samples\":{},\"latency_samples_per_round\":{:?},\"sub_change_samples\":{},\"late_samples\":{},\"peak_rss_mb\":{},\"published\":{},\"spans\":{},\"missing\":{},\"duplicate\":{},\"spurious\":{},\"decoy_deliveries\":{},\"errors\":{},\"failed_share\":{}}}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        kernel,
        filesystem_of(scratch),
        spec.open_rate,
        spec.window,
        spec.churn_per_sec,
        live.windows.len() / SLICES,
        live.windows.iter().map(|w| w.throughput().round()).collect::<Vec<_>>(),
        live.latency_us.iter().map(|r| percentile(r, 50.0).round()).collect::<Vec<_>>(),
        setups.len(),
        live.latency_us.iter().map(Vec::len).collect::<Vec<_>>(),
        live.sub_changes.len(),
        live.late_us.len(),
        json_num(tails[5].value),
        live.published,
        spans.0.len(),
        live.missing,
        live.duplicate,
        live.spurious,
        live.decoy_deliveries,
        live.errors,
        json_num(failed_share),
    );
    let record_path = work.join(format!(
        "record_{}_trace{}.json",
        spec.name,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(&record_path, format!("{record}\n"));
    println!("record {record}");

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    );
    Ok(correct)
}
