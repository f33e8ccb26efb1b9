//! The traced run behind the per-layer metrics: an untraced reference flow,
//! a stage-by-stage replay of `Placer::run` through the public stage
//! functions, and a probe of each kernel on the workload's own mGP problem.
//! Every timer sits in this file, around calls into the crates.

use crate::json::Obj;
use crate::timed::{place, setup};
use crate::workload::Workload;
use eplace_bookshelf::read_aux_checked;
use eplace_core::{
    initial_placement, insert_fillers, run_global_placement, EplaceConfig, EplaceCost, Gradient,
    NesterovOptimizer, Obs, PlacementProblem, Stage,
};
use eplace_density::{grid_dimension, DensityGrid};
use eplace_exec::ExecConfig;
use eplace_geometry::Point;
use eplace_legalize::{check_legal, detail_place, global_swap, legalize, legalize_abacus};
use eplace_mlg::legalize_macros;
use eplace_netlist::{CellKind, Design, LintPolicy};
use eplace_spectral::Transform2d;
use eplace_wirelength::{GammaSchedule, SmoothWirelength, WaModel};
use std::path::Path;
use std::time::{Duration, Instant};

/// Wall-clock budget per probed kernel and thread count.
const PROBE_BUDGET: Duration = Duration::from_millis(400);
const PROBE_MIN_CALLS: usize = 5;
const PROBE_MAX_CALLS: usize = 200;
/// Nesterov steps probed (each costs one or more gradient evaluations).
const PROBE_STEPS: usize = 12;
/// Thread count of the `exec.speedup.*` ratios.
const PARALLEL_THREADS: usize = 2;

pub fn run(workload: Workload, dir: &Path) -> Result<String, String> {
    let optimum = workload.read_optimum(dir)?;
    let aux = workload.aux_path(dir);
    let mut read_s = Vec::new();
    let mut design = None;
    for _ in 0..3 {
        let t = Instant::now();
        let (d, _lint) = read_aux_checked(&aux, LintPolicy::Repair).map_err(|e| e.to_string())?;
        read_s.push(t.elapsed().as_secs_f64());
        design = Some(d);
    }
    let design = design.ok_or("no design read")?;

    // The untraced reference: what the timed runs measure. `run.py` fails
    // the run unless the replay below ends on the same HPWL bits.
    let flow = place(setup(workload, dir)?, optimum);
    let mut m = Obj::new().num("bookshelf.read_s", median(&read_s)).int(
        "bookshelf.bytes",
        workload.bytes(dir).map_err(|e| e.to_string())?,
    );
    // A failed replay or probe is reported for `run.py` to count; the
    // metrics it would have given are left out.
    let mut out = Obj::new();
    match replay(design, &EplaceConfig::default()).and_then(|r| probe(&r.mgp_state).map(|p| (r, p)))
    {
        Ok((replay, probe)) => {
            m = probe
                .metrics(replay.metrics(m))
                .num("flow.stage_cover", replay.timed_s / replay.wall_s)
                .num("trace.overhead", replay.wall_s / flow.seconds - 1.0);
            out = out
                .num("replay_s", replay.wall_s)
                .str(
                    "replay_hpwl_bits",
                    &format!("{:016x}", replay.hpwl.to_bits()),
                )
                .opt_str("replay_failure", None);
        }
        Err(e) => out = out.opt_str("replay_failure", Some(&e)),
    }
    Ok(out
        .str("workload", workload.name())
        .num("flow_s", flow.seconds)
        .num("hpwl", flow.hpwl)
        .str("hpwl_bits", &format!("{:016x}", flow.hpwl.to_bits()))
        .opt_str("failure", flow.failure.as_deref())
        .raw("metrics", &m.finish())
        .finish())
}

/// Accumulates the time spent inside timed stage calls.
#[derive(Default)]
struct Clock {
    timed: Duration,
}

impl Clock {
    /// Runs `f`, adds its duration to the covered total and returns both.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = f();
        let d = t.elapsed();
        self.timed += d;
        (out, d.as_secs_f64())
    }
}

struct Replay {
    hpwl: f64,
    /// Replay wall time, excluding the copy of the mGP state for the probe.
    wall_s: f64,
    /// Wall time inside timed stage calls.
    timed_s: f64,
    mgp_state: Design,
    mip_s: f64,
    mip_cg_iters: usize,
    mgp_s: f64,
    mgp_iters: usize,
    mgp_backtracks_per_iter: f64,
    grad_evals: u64,
    filler_s: f64,
    cgp_s: f64,
    cgp_iters: usize,
    mlg_s: f64,
    mlg_moves_attempted: usize,
    mlg_moves_accepted: usize,
    abacus_s: f64,
    displacement: f64,
    detail_s: f64,
    swap_s: f64,
    swap_gain: f64,
}

/// Replays `Placer::run` (without the routability loop, which the default
/// config leaves off) in its stage order, timing each public stage call.
fn replay(mut design: Design, config: &EplaceConfig) -> Result<Replay, String> {
    let mut cfg = config.clone();
    // `Placer::run` records into a metrics-only recorder when none is set;
    // doing the same keeps the replay's program identical and exposes the
    // gradient-evaluation counter.
    cfg.obs = Obs::metrics();
    let obs = cfg.obs.clone();
    let start = Instant::now();
    let mut clock = Clock::default();
    let mut trace = Vec::new();

    let (mip, mip_s) = clock.time(|| initial_placement(&mut design));

    design.remove_fillers();
    let ((), fill_s) = clock.time(|| {
        insert_fillers(&mut design, cfg.seed);
    });
    let problem = PlacementProblem::all_movables(&design);
    let evals_before = obs.snapshot().counter("grad_evals_total");
    let (mgp, mgp_s) = clock.time(|| {
        run_global_placement(
            &mut design,
            &problem,
            &cfg,
            Stage::Mgp,
            None,
            None,
            &mut trace,
        )
    });
    let mgp = mgp.map_err(|e| format!("replayed mGP failed: {e}"))?;
    let grad_evals = obs.snapshot().counter("grad_evals_total") - evals_before;
    let copy = Instant::now();
    let mgp_state = design.clone();
    let copy_s = copy.elapsed().as_secs_f64();
    design.remove_fillers();

    // mLG + filler phase + cGP, for designs with movable macros only.
    let (has_macros, mut mlg_s) = clock.time(|| {
        design
            .cells
            .iter()
            .any(|c| c.kind == CellKind::Macro && c.is_movable())
    });
    let (mut cgp_iters, mut moves_attempted, mut moves_accepted) = (0, 0, 0);
    let (filler_s, cgp_s) = if has_macros {
        let mut unfixed_std = Vec::new();
        for (i, c) in design.cells.iter_mut().enumerate() {
            if c.kind == CellKind::StdCell && !c.fixed {
                c.fixed = true;
                unfixed_std.push(i);
            }
        }
        let (mlg, s) = clock.time(|| legalize_macros(&mut design, &cfg.mlg));
        mlg_s += s;
        moves_attempted = mlg.moves_attempted;
        moves_accepted = mlg.moves_accepted;
        for &i in &unfixed_std {
            design.cells[i].fixed = false;
        }

        let (filler, s) = clock.time(|| {
            insert_fillers(&mut design, cfg.seed.wrapping_add(1));
            if cfg.enable_filler_phase {
                let fillers = PlacementProblem::fillers_only(&design);
                run_global_placement(
                    &mut design,
                    &fillers,
                    &cfg,
                    Stage::FillerOnly,
                    None,
                    Some(cfg.filler_phase_iterations),
                    &mut trace,
                )
                .map(|_| ())
            } else {
                Ok(())
            }
        });
        filler.map_err(|e| format!("replayed filler phase failed: {e}"))?;
        let filler_s = s;

        let problem = PlacementProblem::all_movables(&design);
        let m = (mgp.iterations / 10) as i32;
        let lambda_init = mgp.lambda_last * cfg.lambda_mu_max.powi(-m);
        let (cgp, s) = clock.time(|| {
            run_global_placement(
                &mut design,
                &problem,
                &cfg,
                Stage::Cgp,
                Some(lambda_init),
                None,
                &mut trace,
            )
        });
        let cgp = cgp.map_err(|e| format!("replayed cGP failed: {e}"))?;
        cgp_iters = cgp.iterations;
        design.remove_fillers();
        (filler_s, s)
    } else {
        // The scan for movable macros is all these stages cost here.
        (mlg_s, mlg_s)
    };

    // cDP: Abacus with the Tetris fallback, then detail placement and the
    // global swap, as `Placer::run` does.
    let (legal, abacus_s) = clock.time(|| {
        if cfg.use_abacus {
            legalize_abacus(&mut design).or_else(|_| legalize(&mut design))
        } else {
            legalize(&mut design)
        }
    });
    let legal = legal.map_err(|e| format!("replayed legalization failed: {e}"))?;
    let (_, detail1_s) = clock.time(|| detail_place(&mut design, cfg.detail_passes));
    let (swap_gain, swap_s) = clock.time(|| global_swap(&mut design, cfg.detail_passes));
    let (_, detail2_s) = clock.time(|| detail_place(&mut design, 1));
    let hpwl = design.hpwl();
    let wall_s = start.elapsed().as_secs_f64() - copy_s;
    check_legal(&design).map_err(|e| format!("replayed placement is illegal: {e}"))?;

    Ok(Replay {
        hpwl,
        wall_s,
        timed_s: clock.timed.as_secs_f64(),
        mgp_state,
        mip_s,
        mip_cg_iters: mip.cg_iterations,
        // As in `Placer::run`'s stage timing, mGP includes filler insertion.
        mgp_s: mgp_s + fill_s,
        mgp_iters: mgp.iterations,
        mgp_backtracks_per_iter: mgp.backtracks_per_iteration,
        grad_evals,
        filler_s,
        cgp_s,
        cgp_iters,
        mlg_s,
        mlg_moves_attempted: moves_attempted,
        mlg_moves_accepted: moves_accepted,
        abacus_s,
        displacement: legal.total_displacement,
        detail_s: detail1_s + detail2_s,
        swap_s,
        swap_gain,
    })
}

impl Replay {
    fn metrics(&self, m: Obj) -> Obj {
        let accept = if self.mlg_moves_attempted > 0 {
            self.mlg_moves_accepted as f64 / self.mlg_moves_attempted as f64
        } else {
            0.0
        };
        m.num("mip.s", self.mip_s)
            .int("mip.cg_iters", self.mip_cg_iters as u64)
            .num("gp.mgp_s", self.mgp_s)
            .int("gp.mgp_iters", self.mgp_iters as u64)
            .num("gp.mgp_backtracks_per_iter", self.mgp_backtracks_per_iter)
            .int("gp.grad_evals", self.grad_evals)
            .num(
                "gp.step_ms",
                1e3 * self.mgp_s / self.mgp_iters.max(1) as f64,
            )
            .num("gp.filler_s", self.filler_s)
            .num("gp.cgp_s", self.cgp_s)
            .int("gp.cgp_iters", self.cgp_iters as u64)
            .num("mlg.s", self.mlg_s)
            .int("mlg.moves_attempted", self.mlg_moves_attempted as u64)
            .num("mlg.accept_ratio", accept)
            .num("legalize.abacus_s", self.abacus_s)
            .num("legalize.detail_s", self.detail_s)
            .num("legalize.swap_s", self.swap_s)
            .num("legalize.swap_gain", self.swap_gain)
            .num("legalize.displacement", self.displacement)
    }
}

/// Per-call medians of the mGP kernels, serial and with
/// [`PARALLEL_THREADS`] threads.
struct Probe {
    grid: usize,
    objects: usize,
    pins: usize,
    deposit_ms: [f64; 2],
    solve_ms: [f64; 2],
    wa_ms: [f64; 2],
    round_ms: f64,
    grad_ms: f64,
    step_ms: f64,
    step_self_ms: f64,
}

/// Repeats `call` (at least [`PROBE_MIN_CALLS`] times, then until
/// [`PROBE_BUDGET`] is spent) and returns the median of the durations it
/// reports, in ms.
fn per_call_ms(mut call: impl FnMut() -> Duration) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < PROBE_MIN_CALLS
        || (start.elapsed() < PROBE_BUDGET && samples.len() < PROBE_MAX_CALLS)
    {
        samples.push(call().as_secs_f64() * 1e3);
    }
    median(&samples)
}

fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

/// Forwards to a [`Gradient`] and times every gradient evaluation, so a
/// Nesterov step's own work is its time minus the gradient's.
struct TimedGradient<G> {
    inner: G,
    spent: Duration,
}

impl<G: Gradient> Gradient for TimedGradient<G> {
    fn gradient(&mut self, pos: &[Point], grad: &mut [Point]) {
        let t = Instant::now();
        self.inner.gradient(pos, grad);
        self.spent += t.elapsed();
    }

    fn project(&self, pos: &mut [Point]) {
        self.inner.project(pos);
    }
}

/// Probes the kernels on the design as mGP left it (fillers included).
fn probe(design: &Design) -> Result<Probe, String> {
    let cfg = EplaceConfig::default();
    let problem = PlacementProblem::all_movables(design);
    let pos = problem.positions(design);
    let full_pos: Vec<Point> = design.cells.iter().map(|c| c.pos).collect();
    let dim = grid_dimension(problem.len(), cfg.grid_min, cfg.grid_max);
    let execs = [
        ExecConfig::serial(),
        ExecConfig::with_threads(PARALLEL_THREADS),
    ];

    let mut deposit_ms = [0.0; 2];
    let mut solve_ms = [0.0; 2];
    let mut wa_ms = [0.0; 2];
    let mut charge = Vec::new();
    for (k, exec) in execs.into_iter().enumerate() {
        let mut grid =
            DensityGrid::new(design.region, dim, dim, design.target_density).with_exec(exec);
        for c in design.cells.iter().filter(|c| c.fixed) {
            grid.add_fixed(c.rect());
        }
        deposit_ms[k] = per_call_ms(|| timed(|| grid.deposit(&problem.objects, &pos)));
        solve_ms[k] = per_call_ms(|| timed(|| grid.solve()));
        let schedule = GammaSchedule::new(grid.bin_width().max(grid.bin_height()));
        let gamma = schedule.gamma(grid.overflow());
        charge = grid.charge_map().to_vec();

        let mut wa = WaModel::new(design).with_exec(exec);
        let mut grad = vec![Point::ORIGIN; design.cells.len()];
        wa_ms[k] = per_call_ms(|| {
            timed(|| {
                wa.gradient(design, &full_pos, gamma, &mut grad);
            })
        });
    }

    // One Poisson-solve transform round at the workload's grid: dct2, dct3,
    // dst3_x and dst3_y, each from the same charge map.
    let mut transform = Transform2d::new(dim, dim).map_err(|e| e.to_string())?;
    let mut buf = charge.clone();
    let round_ms = per_call_ms(|| {
        buf.copy_from_slice(&charge);
        timed(|| {
            transform.dct2(&mut buf);
            transform.dct3(&mut buf);
            transform.dst3_x(&mut buf);
            transform.dst3_y(&mut buf);
        })
    });

    let mut cost = EplaceCost::new(design, &problem, dim, dim, cfg.enable_preconditioner);
    cost.init_lambda(&pos);
    let mut grad = vec![Point::ORIGIN; pos.len()];
    let grad_ms = per_call_ms(|| timed(|| cost.gradient(&pos, &mut grad)));

    let perturb = 0.1 * cost.bin_width();
    let mut wrapped = TimedGradient {
        inner: cost,
        spent: Duration::ZERO,
    };
    let mut opt = NesterovOptimizer::new(
        pos.clone(),
        &mut wrapped,
        cfg.epsilon,
        cfg.max_backtracks,
        cfg.enable_backtracking,
        perturb,
    );
    wrapped.spent = Duration::ZERO;
    let mut steps = Vec::new();
    let start = Instant::now();
    for _ in 0..PROBE_STEPS {
        let t = Instant::now();
        opt.step(&mut wrapped);
        steps.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    let step_self_ms = (total_ms - wrapped.spent.as_secs_f64() * 1e3) / PROBE_STEPS as f64;

    Ok(Probe {
        grid: dim,
        objects: problem.objects.len(),
        pins: design.nets.iter().map(|n| n.pins.len()).sum(),
        deposit_ms,
        solve_ms,
        wa_ms,
        round_ms,
        grad_ms,
        step_ms: median(&steps),
        step_self_ms,
    })
}

impl Probe {
    fn metrics(&self, m: Obj) -> Obj {
        let combine = self.grad_ms - self.deposit_ms[0] - self.solve_ms[0] - self.wa_ms[0];
        m.num("nesterov.step_ms", self.step_ms)
            .num("nesterov.self_ms", self.step_self_ms)
            .num("cost.grad_ms", self.grad_ms)
            .num("cost.combine_ms", combine)
            .num("density.deposit_ms", self.deposit_ms[0])
            .num("density.solve_ms", self.solve_ms[0])
            .int("density.objects", self.objects as u64)
            .num("spectral.round_ms", self.round_ms)
            .int("spectral.grid", self.grid as u64)
            .num("wirelength.wa_ms", self.wa_ms[0])
            .int("wirelength.pins", self.pins as u64)
            .num(
                "exec.speedup.deposit",
                self.deposit_ms[0] / self.deposit_ms[1],
            )
            .num("exec.speedup.solve", self.solve_ms[0] / self.solve_ms[1])
            .num("exec.speedup.wa", self.wa_ms[0] / self.wa_ms[1])
    }
}

/// Median of `values` (NaN when empty).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}
