//! `perfbench --workload <explore|corpus|service> --seed N --seconds S
//! --trace <0|1> [--clients C]`
//!
//! Runs the set-up three times (reporting the median), then measures
//! for `--seconds`, sharing the time among all three stages (explore
//! 3 : corpus 1 : service 1, the workload's own stage weighted 1.5 times
//! more, and at least one pass or phase each), so every run reports
//! every metric. End-to-end timings are scaled unit by unit by the host
//! speed [`calib`](idar_perfbench::calib) measures on either side of the
//! unit; rates are medians over the run's units, latency percentiles are
//! taken over every sample of the run. The last line of standard output is
//! the JSON result; the exit code is non-zero when any correctness check
//! failed. `--trace 1` reports the per-layer metrics instead of the
//! end-to-end ones and writes its spans next to the build output.

use idar_core::GuardedForm;
use idar_perfbench::metrics::{self, END_TO_END};
use idar_perfbench::trace::Tracer;
use idar_perfbench::util::{mean, median, percentile};
use idar_perfbench::{calib, corpus, explore, service};
use idar_solver::AnalysisRequest;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Relative shares of the measuring time of explore, corpus and
/// service: an explore unit takes seconds, a corpus or service pass half
/// a second, so explore gets three times the time to run enough units.
const BASE_SHARE: [f64; 3] = [3.0, 1.0, 1.0];
/// The workload's own stage gets this much more than its base share.
const FOCUS_BOOST: f64 = 1.5;
/// Relative shares of the explore time of phases (a), (b) and (c): the
/// chain's rate swings most from one search to the next, so it gets as
/// much time as the two lattice phases together.
const PHASE_SHARE: [f64; 3] = [1.0, 2.0, 1.0];

const USAGE: &str = "usage: perfbench --workload <explore|corpus|service> --seed N \
                     --seconds S --trace <0|1> [--clients C] [--corrupt-reference]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Explore,
    Corpus,
    Service,
}

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Explore => "explore",
            Stage::Corpus => "corpus",
            Stage::Service => "service",
        }
    }
}

struct Args {
    workload: Stage,
    seed: u64,
    seconds: f64,
    trace: bool,
    clients: usize,
    /// Self-test hook: flip every reference verdict, so the corpus
    /// checks must fail.
    corrupt_reference: bool,
}

fn parse_args(nproc: usize) -> Result<Args, String> {
    let mut args = Args {
        workload: Stage::Explore,
        seed: 1,
        seconds: 10.0,
        trace: false,
        clients: nproc.min(2),
        corrupt_reference: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-reference" {
            args.corrupt_reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "explore" => Stage::Explore,
                    "corpus" => Stage::Corpus,
                    "service" => Stage::Service,
                    _ => return Err(format!("unknown workload {value:?}")),
                })
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--clients" => args.clients = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if args.clients == 0 || args.clients > nproc {
        return Err(format!(
            "refusing {} client connections on {nproc} cores: the closed loop must not \
             outnumber the cores",
            args.clients
        ));
    }
    Ok(args)
}

/// Everything the set-up builds: inputs, reference verdicts, a server
/// start.
struct Inputs {
    explore: explore::Inputs,
    corpus: corpus::Corpus,
    requests: Vec<(usize, AnalysisRequest)>,
    schedule: service::Schedule,
    reference: service::Reference,
}

fn setup(seed: u64, corrupt_reference: bool) -> Inputs {
    let explore = explore::Inputs::build();
    let mut corpus = corpus::Corpus::build(seed, corpus::SAMPLED_FORMS);
    if corrupt_reference {
        for r in corpus
            .entries
            .iter_mut()
            .filter_map(|e| e.reference.as_mut())
        {
            r.completable = !r.completable;
            r.semisound = !r.semisound;
        }
    }
    let requests = corpus.requests();
    let pool = &corpus.entries[..service::POOL_FORMS];
    let forms: Vec<GuardedForm> = pool.iter().map(|e| e.form.clone()).collect();
    let sizes: Vec<usize> = pool
        .iter()
        .map(|e| e.reference.map_or(0, |r| r.states))
        .collect();
    let schedule = service::Schedule::new(seed, &forms, &sizes);
    let reference = service::reference(&schedule);
    service::start().shutdown();
    Inputs {
        explore,
        corpus,
        requests,
        schedule,
        reference,
    }
}

/// Where spill files and traces go: the build directory, inside the
/// checkout.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
        .join("perfbench-out")
}

fn main() -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let args = match parse_args(nproc) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::from(2);
    }
    // The spilling store writes its page file under the temp dir; keep
    // it inside the checkout. No other thread exists yet.
    std::env::set_var("TMPDIR", &out);

    let load = service::load(args.clients);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# load: nproc={nproc} explorer_threads=1 client_connections={} server_threads={} \
         server_workers={} request_explorer_threads={}",
        load.clients, load.server_threads, load.workers, load.inner_threads
    );

    let mut cal = calib::Calibration::new();
    cal.sample();
    // (raw seconds, host factor) of each set-up.
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(setup(args.seed, args.corrupt_reference));
        let raw = t.elapsed().as_secs_f64();
        cal.sample();
        setup_s.push((raw, cal.last_factor()));
    }
    let inp = inputs.expect("set-up ran");
    let referenced = inp.corpus.entries.iter().filter(|e| e.reference.is_some());
    println!(
        "# inputs: {} corpus forms ({} with a closed reference, {} sampled forms left out as not \
         small), {} service users over {} pool forms, {} requests per pass",
        inp.corpus.entries.len(),
        referenced.count(),
        inp.corpus.rejected,
        inp.schedule.users.len(),
        inp.schedule.pool.len(),
        inp.reference.verdicts.len()
    );

    let mut tracer = args.trace.then(Tracer::default);
    let mut ex = explore::Results::default();
    let mut cr = corpus::Results::default();
    let mut sr = service::Results::default();
    // Time-sharing: always run a unit of the stage furthest below its
    // share of the time spent so far, so the short stages are spread
    // over the whole run. A unit is one explore phase, one corpus pass
    // or one service pass. The first three explore units are (a), (b),
    // (c) in that order, so every (c) has an (a) to be checked against.
    let stages = [Stage::Explore, Stage::Corpus, Stage::Service];
    let share = |k: usize| {
        if stages[k] == args.workload {
            BASE_SHARE[k] * FOCUS_BOOST
        } else {
            BASE_SHARE[k]
        }
    };
    let mut spent = [0.0f64; 3];
    let mut units = [0usize; 3];
    let mut phase_spent = [0.0f64; 3];
    let mut log: Vec<Unit> = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds
        || units[0] < explore::PHASES.len()
        || units[1] == 0
        || units[2] == 0
    {
        let k = (0..3)
            .min_by(|&i, &j| (spent[i] / share(i)).total_cmp(&(spent[j] / share(j))))
            .expect("three stages");
        let t = Instant::now();
        let from = [cr.latency.len(), sr.latency.len()];
        let series = match stages[k] {
            Stage::Explore => {
                // The phases share the explore time by PHASE_SHARE.
                let p = (0..explore::PHASES.len())
                    .min_by(|&i, &j| {
                        (phase_spent[i] / PHASE_SHARE[i])
                            .total_cmp(&(phase_spent[j] / PHASE_SHARE[j]))
                    })
                    .expect("three phases");
                let t = Instant::now();
                explore::run_phase(&inp.explore, explore::PHASES[p], &mut ex, tracer.as_mut());
                phase_spent[p] += t.elapsed().as_secs_f64();
                p
            }
            Stage::Corpus => {
                corpus::pass(&inp.corpus, &inp.requests, &mut cr);
                if let Some(tr) = tracer.as_mut() {
                    corpus::staged_pass(&inp.corpus, &inp.requests, &mut cr, tr);
                }
                CORPUS
            }
            Stage::Service => {
                service::pass(
                    &inp.schedule,
                    &inp.reference,
                    args.clients,
                    &mut sr,
                    tracer.as_mut(),
                );
                SERVICE
            }
        };
        spent[k] += t.elapsed().as_secs_f64();
        units[k] += 1;
        cal.sample();
        let latency = match series {
            CORPUS => from[0]..cr.latency.len(),
            SERVICE => from[1]..sr.latency.len(),
            _ => 0..0,
        };
        log.push(Unit {
            series,
            latency,
            host: cal.last_factor(),
        });
    }
    let cal_ms = sorted(&cal.samples.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    println!(
        "# host: calibration {} runs, median {:.3} ms, quartiles {:.3}..{:.3} ms (nominal {} ms); \
         each unit's timings are divided, its rates multiplied, by the mean of the calibrations \
         on either side over nominal",
        cal_ms.len(),
        percentile(&cal_ms, 50.0),
        percentile(&cal_ms, 25.0),
        percentile(&cal_ms, 75.0),
        calib::NOMINAL_S * 1e3
    );

    let failures: Vec<&String> = ex
        .failures
        .iter()
        .chain(&cr.failures)
        .chain(&sr.failures)
        .collect();
    let attempted = ex.attempted + cr.analyses + cr.staged.requests + sr.requests;
    let failed = (failures.len() as u64).min(attempted);
    for f in failures.iter().take(20) {
        println!("# FAIL {f}");
    }
    println!(
        "# checks: {attempted} operations, {failed} failed; service verdict digest {:016x}",
        sr.digest
    );

    let values = match &mut tracer {
        None => end_to_end(&setup_s, &log, &ex, &cr, &sr),
        Some(tr) => {
            let v = per_layer(&ex, &cr, &sr);
            for (name, st) in tr.self_times() {
                println!(
                    "# span {name:<28} n={:<7} total {:>10.3} ms  self {:>10.3} ms",
                    st.count,
                    st.total_ns as f64 / 1e6,
                    st.self_ns as f64 / 1e6
                );
            }
            let path = out.join(format!(
                "trace-{}-{}.jsonl",
                args.workload.name(),
                args.seed
            ));
            match tr.write_jsonl(&path) {
                Ok(()) => println!(
                    "# spans: {} written to {}",
                    tr.spans().len(),
                    path.display()
                ),
                Err(e) => println!("# spans: not written to {}: {e}", path.display()),
            }
            v
        }
    };
    println!("{}", metrics::result_line(attempted, failed, &values));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `values` sorted.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Unit series: the explore phases are 0..3 (index into
/// `explore::PHASES`), then the corpus and service passes.
const CORPUS: usize = 3;
const SERVICE: usize = 4;

/// One measured unit of the run.
struct Unit {
    /// Which series it belongs to (an explore phase, [`CORPUS`] or
    /// [`SERVICE`]); its rate is the next one of that series.
    series: usize,
    /// The latency samples it added (corpus and service passes).
    latency: std::ops::Range<usize>,
    /// Host factor from the calibrations on either side of it.
    host: f64,
}

/// The end-to-end values, host-scaled unit by unit when `scaled`: rates
/// are medians over the run's units, latency percentiles are over every
/// sample of the run.
fn e2e_values(
    setup_s: &[(f64, f64)],
    log: &[Unit],
    ex: &explore::Results,
    cr: &corpus::Results,
    sr: &service::Results,
    scaled: bool,
) -> [f64; 12] {
    let host = |h: f64| if scaled { h } else { 1.0 };
    let raw: [&[f64]; 5] = [
        &ex.lattice_rate,
        &ex.chain_rate,
        &ex.spill_rate,
        &cr.pass_rate,
        &sr.pass_rate,
    ];
    let mut rates: [Vec<f64>; 5] = Default::default();
    let mut verdicts = Vec::new();
    let mut requests = Vec::new();
    for u in log {
        let i = rates[u.series].len();
        rates[u.series].push(raw[u.series][i] * host(u.host));
        let (out, all) = match u.series {
            CORPUS => (&mut verdicts, cr.latency.samples()),
            SERVICE => (&mut requests, sr.latency.samples()),
            _ => continue,
        };
        out.extend(all[u.latency.clone()].iter().map(|ms| ms / host(u.host)));
    }
    let (verdicts, requests) = (sorted(&verdicts), sorted(&requests));
    let setup: Vec<f64> = setup_s.iter().map(|&(s, h)| s / host(h)).collect();
    [
        median(&setup),
        median(&rates[0]),
        median(&rates[1]),
        median(&rates[2]),
        median(&ex.lattice_bytes_per_state),
        median(&rates[CORPUS]),
        percentile(&verdicts, 50.0),
        percentile(&verdicts, 99.0),
        cr.decided as f64 / cr.analyses.max(1) as f64,
        median(&rates[SERVICE]),
        percentile(&requests, 50.0),
        percentile(&requests, 99.0),
    ]
}

/// The end-to-end metrics, host-scaled, each printed beside its
/// unscaled value.
fn end_to_end(
    setup_s: &[(f64, f64)],
    log: &[Unit],
    ex: &explore::Results,
    cr: &corpus::Results,
    sr: &service::Results,
) -> Vec<(String, f64, &'static str)> {
    let values = e2e_values(setup_s, log, ex, cr, sr, true);
    let raw = e2e_values(setup_s, log, ex, cr, sr, false);
    println!(
        "# units: explore (a) {}, (b) {}, (c) {}; corpus passes {}, verdicts {}; service passes \
         {}, requests {} (unscaled)",
        ex.lattice_rate.len(),
        ex.chain_rate.len(),
        ex.spill_rate.len(),
        cr.pass_rate.len(),
        cr.latency.summary(),
        sr.pass_rate.len(),
        sr.latency.summary()
    );
    let rates = |v: &[f64]| v.iter().map(|r| format!("{r:.0}")).collect::<Vec<_>>();
    println!(
        "# explore units, unscaled states/s: (a) {:?}, (b) {:?}, (c) {:?}",
        rates(&ex.lattice_rate),
        rates(&ex.chain_rate),
        rates(&ex.spill_rate)
    );
    END_TO_END
        .iter()
        .zip(values.into_iter().zip(raw))
        .map(|(m, (v, raw))| {
            println!(
                "# {:<26} {v:>16.4} {:<9} (unscaled {raw:.4}; {}, {} is better)",
                m.name, m.unit, m.stage, m.better
            );
            (m.name.to_string(), v, m.unit)
        })
        .collect()
}

fn per_layer(
    ex: &explore::Results,
    cr: &corpus::Results,
    sr: &service::Results,
) -> Vec<(String, f64, &'static str)> {
    let mut values: Vec<f64> = Vec::new();
    for rounds in [&ex.lattice_layers, &ex.chain_layers] {
        let per: Vec<[f64; 7]> = rounds.iter().map(explore::LayerTimes::per_unit).collect();
        for k in 0..7 {
            values.push(median(&per.iter().map(|p| p[k]).collect::<Vec<_>>()));
        }
    }
    let spill = ex.spill.last().copied().unwrap_or_default();
    values.push(spill.encoded_bytes as f64 / spill.states.max(1) as f64);
    values.push(spill.word_bytes as f64 / spill.encoded_bytes.max(1) as f64);
    values.push(spill.spilled_pages as f64);
    values.push(spill.faults as f64);

    let st = &cr.staged;
    let (key, classify, prune) = st.means();
    let screen = st.screen.sorted();
    values.extend([
        key,
        classify,
        percentile(&screen, 50.0) * 1e3,
        percentile(&screen, 99.0) * 1e3,
        st.screen_decided as f64 / st.requests.max(1) as f64,
        prune,
    ]);
    for m in metrics::METHODS {
        let lat = st.methods.get(m).map(|l| l.sorted()).unwrap_or_default();
        values.extend([
            percentile(&lat, 50.0) * 1e3,
            percentile(&lat, 99.0) * 1e3,
            lat.len() as f64,
        ]);
    }
    values.push(mean(&st.states));

    values.extend([
        mean(&sr.read_request_us),
        mean(&sr.from_ron_us),
        median(&sr.cache_hit_ratio),
        median(&sr.graph_hit_ratio),
        median(&sr.cold_solves),
        mean(&sr.safe_updates_us),
        median(&sr.shed),
        median(&sr.overhead_us),
        st.traced_ns as f64 / st.noop_ns.max(1) as f64 - 1.0,
    ]);

    let defs = metrics::per_layer();
    assert_eq!(defs.len(), values.len(), "one value per per-layer metric");
    defs.into_iter()
        .zip(values)
        .map(|(d, v)| {
            println!("# {:<44} {v:>14.4} {:<7} -> {}", d.name, d.unit, d.feeds);
            (d.name, v, d.unit)
        })
        .collect()
}
