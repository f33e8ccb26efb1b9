use crate::SmoothWirelength;
use eplace_exec::{for_each_span, ExecConfig};
use eplace_geometry::Point;
use eplace_netlist::{Design, Net};
use eplace_obs::Obs;

/// Per-worker scratch for one net's WA evaluation: exponent tables, pin
/// coordinates, and per-pin axis derivatives.
#[derive(Debug, Clone)]
struct NetScratch {
    exp_pos: Vec<f64>,
    exp_neg: Vec<f64>,
    coords: Vec<f64>,
    grad_x: Vec<f64>,
    grad_y: Vec<f64>,
}

impl NetScratch {
    fn with_degree(max_degree: usize) -> Self {
        NetScratch {
            exp_pos: vec![0.0; max_degree],
            exp_neg: vec![0.0; max_degree],
            coords: vec![0.0; max_degree],
            grad_x: vec![0.0; max_degree],
            grad_y: vec![0.0; max_degree],
        }
    }

    /// Smooth length of one net along one axis. `self.coords[..k]` must hold
    /// the pin coordinates. Per-pin derivatives are written to the axis
    /// scratch when requested.
    fn axis_value(&mut self, k: usize, gamma: f64, want_grad: bool, use_y_scratch: bool) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &c in &self.coords[..k] {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        let inv_gamma = 1.0 / gamma;
        let (mut d_pos, mut s_pos) = (0.0, 0.0);
        let (mut d_neg, mut s_neg) = (0.0, 0.0);
        for j in 0..k {
            let c = self.coords[j];
            let ep = ((c - hi) * inv_gamma).exp();
            let en = ((lo - c) * inv_gamma).exp();
            self.exp_pos[j] = ep;
            self.exp_neg[j] = en;
            d_pos += ep;
            s_pos += c * ep;
            d_neg += en;
            s_neg += c * en;
        }
        if want_grad {
            let inv_dp2 = 1.0 / (d_pos * d_pos);
            let inv_dn2 = 1.0 / (d_neg * d_neg);
            for j in 0..k {
                let c = self.coords[j];
                // ∂(S⁺/D⁺)/∂xⱼ = e⁺ⱼ·[(1 + xⱼ/γ)·D⁺ − S⁺/γ]/D⁺²
                let g_max =
                    self.exp_pos[j] * ((1.0 + c * inv_gamma) * d_pos - s_pos * inv_gamma) * inv_dp2;
                // ∂(S⁻/D⁻)/∂xⱼ = e⁻ⱼ·[(1 − xⱼ/γ)·D⁻ + S⁻/γ]/D⁻²
                let g_min =
                    self.exp_neg[j] * ((1.0 - c * inv_gamma) * d_neg + s_neg * inv_gamma) * inv_dn2;
                if use_y_scratch {
                    self.grad_y[j] = g_max - g_min;
                } else {
                    self.grad_x[j] = g_max - g_min;
                }
            }
        }
        s_pos / d_pos - s_neg / d_neg
    }

    /// Weighted smooth length of `net`, writing each pin's weighted
    /// derivative `w·∂/∂(x, y)` into `pin_grad` (one entry per pin, in pin
    /// order) when provided. The caller skips nets with fewer than two pins.
    fn net_value(
        &mut self,
        net: &Net,
        pos: &[Point],
        gamma: f64,
        pin_grad: Option<&mut [Point]>,
    ) -> f64 {
        let k = net.pins.len();
        let want = pin_grad.is_some();
        let w = net.weight;
        for (j, pin) in net.pins.iter().enumerate() {
            self.coords[j] = pos[pin.cell.index()].x + pin.offset.x;
        }
        let wx = self.axis_value(k, gamma, want, false);
        for (j, pin) in net.pins.iter().enumerate() {
            self.coords[j] = pos[pin.cell.index()].y + pin.offset.y;
        }
        let wy = self.axis_value(k, gamma, want, true);
        if let Some(out) = pin_grad {
            for (j, slot) in out.iter_mut().enumerate() {
                *slot = Point::new(w * self.grad_x[j], w * self.grad_y[j]);
            }
        }
        w * (wx + wy)
    }
}

/// The weighted-average (WA) smooth wirelength model (paper Eq. 3).
///
/// Per net and axis the max (min) coordinate is approximated by
///
/// ```text
/// max ≈ Σ xᵢ·e^{ xᵢ/γ} / Σ e^{ xᵢ/γ}
/// min ≈ Σ xᵢ·e^{−xᵢ/γ} / Σ e^{−xᵢ/γ}
/// ```
///
/// so the smooth net length is `(max̃ − miñ)` per axis. WA always
/// *underestimates* HPWL, with an `O(γ)` error per net; `γ` is tightened as
/// the placement spreads out (see [`crate::GammaSchedule`]).
///
/// Exponentials are shifted by the per-net max/min coordinate before
/// evaluation, so arbitrarily spread nets never overflow.
///
/// The struct owns all scratch buffers, making evaluation and gradient
/// computation allocation-free — wirelength gradients are 29 % of mGP
/// runtime in the paper (Fig. 7), so the hot path matters.
///
/// Evaluation runs in two passes, each output element with one owner. The
/// net pass gives every worker a range of nets and writes each net's value
/// and each pin's weighted derivative; the cell pass gives every worker a
/// range of cells, and each cell sums its pins' derivatives in (net, pin)
/// order. The total sums the net values in net order. Both sums run in the
/// serial order whatever the split, so [`WaModel::set_exec`] changes how
/// many threads run, never the bits.
///
/// The model is tied to the design it was built for: its net→pin offsets
/// and cell→pin lists are built once in [`WaModel::new`], and evaluating a
/// design with another cell count, net count or net degree panics.
#[derive(Debug, Clone)]
pub struct WaModel {
    max_degree: usize,
    /// Per-worker scratch for the net pass, one slot per worker.
    pool: Vec<NetScratch>,
    /// Net `n`'s pins are entries `net_pins[n]..net_pins[n + 1]` of `pin_grad`.
    net_pins: Vec<usize>,
    /// Cell `c`'s pins on nets of degree ≥ 2, in (net, pin) order, are
    /// `cell_pins[cell_start[c]..cell_start[c + 1]]`.
    cell_start: Vec<usize>,
    cell_pins: Vec<u32>,
    /// `w·∂W̃/∂(x, y)` of every pin, written by the net pass.
    pin_grad: Vec<Point>,
    /// Weighted smooth length of every net (0 below two pins).
    net_value: Vec<f64>,
    exec: ExecConfig,
    obs: Obs,
}

impl WaModel {
    /// Creates a model for `design`: scratch space sized for its largest
    /// net and its pin layout (serial execution; see [`WaModel::set_exec`]).
    ///
    /// # Panics
    ///
    /// Panics if the design has more than `u32::MAX` pins.
    pub fn new(design: &Design) -> Self {
        let max_degree = design.nets.iter().map(Net::degree).max().unwrap_or(0);
        let mut net_pins = Vec::with_capacity(design.nets.len() + 1);
        net_pins.push(0);
        let mut cell_start = vec![0usize; design.cells.len() + 1];
        for net in &design.nets {
            net_pins.push(net_pins[net_pins.len() - 1] + net.pins.len());
            if net.pins.len() >= 2 {
                for pin in &net.pins {
                    cell_start[pin.cell.index() + 1] += 1;
                }
            }
        }
        for c in 0..design.cells.len() {
            cell_start[c + 1] += cell_start[c];
        }
        let pins = net_pins[design.nets.len()];
        assert!(u32::try_from(pins).is_ok(), "{pins} pins exceed u32");
        let mut fill = cell_start.clone();
        let mut cell_pins = vec![0u32; cell_start[design.cells.len()]];
        for (net, &first) in design.nets.iter().zip(&net_pins) {
            if net.pins.len() >= 2 {
                for (j, pin) in net.pins.iter().enumerate() {
                    let c = pin.cell.index();
                    cell_pins[fill[c]] = (first + j) as u32;
                    fill[c] += 1;
                }
            }
        }
        WaModel {
            max_degree,
            pool: Vec::new(),
            net_pins,
            cell_start,
            cell_pins,
            pin_grad: vec![Point::ORIGIN; pins],
            net_value: vec![0.0; design.nets.len()],
            exec: ExecConfig::serial(),
            obs: Obs::disabled(),
        }
    }

    /// Sets the execution configuration for subsequent evaluations.
    pub fn set_exec(&mut self, exec: ExecConfig) {
        self.exec = exec;
    }

    /// Builder form of [`WaModel::set_exec`].
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Sets the observability recorder: gradients record a `wa_gradient`
    /// span and the `wa_gradients` counter, plain evaluations a `wa_eval`
    /// span. Recording never affects the computed values.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Builder form of [`WaModel::set_obs`].
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    fn run(
        &mut self,
        design: &Design,
        pos: &[Point],
        gamma: f64,
        grad: Option<&mut [Point]>,
    ) -> f64 {
        let cells = self.cell_start.len() - 1;
        assert!(
            design.cells.len() == cells
                && design.nets.len() == self.net_value.len()
                && design
                    .nets
                    .iter()
                    .zip(self.net_pins.windows(2))
                    .all(|(net, pins)| net.pins.len() == pins[1] - pins[0]),
            "WA model built for {cells} cells, {} nets and {} pins, \
             called on a design of {} cells, {} nets and {} pins",
            self.net_value.len(),
            self.pin_grad.len(),
            design.cells.len(),
            design.nets.len(),
            design.nets.iter().map(Net::degree).sum::<usize>(),
        );
        let WaModel {
            max_degree,
            pool,
            net_pins,
            cell_start,
            cell_pins,
            pin_grad,
            net_value,
            exec,
            ..
        } = self;
        let want = grad.is_some();
        let net_pins: &[usize] = net_pins;
        for_each_span(
            exec,
            design.nets.len(),
            (&mut pin_grad[..], &mut net_value[..]),
            |(pins, values), head| {
                let (pins_head, pins_tail) =
                    pins.split_at_mut(net_pins[head.end] - net_pins[head.start]);
                let (values_head, values_tail) = values.split_at_mut(head.len());
                ((pins_head, values_head), (pins_tail, values_tail))
            },
            pool,
            || NetScratch::with_degree(*max_degree),
            |nets, (pins, values), scratch| {
                let base = net_pins[nets.start];
                for (n, value) in nets.zip(values) {
                    let net = &design.nets[n];
                    *value = if net.pins.len() < 2 {
                        0.0
                    } else {
                        let out = &mut pins[net_pins[n] - base..net_pins[n + 1] - base];
                        scratch.net_value(net, pos, gamma, want.then_some(out))
                    };
                }
            },
        );
        if let Some(grad) = grad {
            let (grad, rest) = grad.split_at_mut(cells);
            rest.fill(Point::ORIGIN);
            let pin_grad: &[Point] = pin_grad;
            for_each_span(
                exec,
                cells,
                grad,
                |grad, head| grad.split_at_mut(head.len()),
                &mut Vec::new(),
                || (),
                |cells, grad, _| {
                    for (c, g) in cells.zip(grad) {
                        let mut sum = Point::ORIGIN;
                        for &pin in &cell_pins[cell_start[c]..cell_start[c + 1]] {
                            let d = pin_grad[pin as usize];
                            sum.x += d.x;
                            sum.y += d.y;
                        }
                        *g = sum;
                    }
                },
            );
        }
        net_value.iter().fold(0.0, |total, v| total + v)
    }
}

impl SmoothWirelength for WaModel {
    fn evaluate(&mut self, design: &Design, pos: &[Point], gamma: f64) -> f64 {
        let _span = self.obs.span("wa_eval");
        self.run(design, pos, gamma, None)
    }

    fn gradient(&mut self, design: &Design, pos: &[Point], gamma: f64, grad: &mut [Point]) -> f64 {
        assert!(
            grad.len() >= design.cells.len(),
            "gradient buffer too small"
        );
        let _span = self.obs.span("wa_gradient");
        self.obs.add("wa_gradients", 1);
        self.run(design, pos, gamma, Some(grad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_geometry::Rect;
    use eplace_netlist::{CellKind, DesignBuilder};

    fn star_design(k: usize) -> (Design, Vec<Point>) {
        let mut b = DesignBuilder::new("star", Rect::new(0.0, 0.0, 100.0, 100.0));
        let ids: Vec<_> = (0..k)
            .map(|i| b.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::StdCell))
            .collect();
        b.add_net("n", ids.iter().map(|&id| (id, Point::ORIGIN)).collect());
        let d = b.build();
        let pos: Vec<Point> = (0..k)
            .map(|i| Point::new((i * i % 17) as f64, (i * 3 % 11) as f64))
            .collect();
        (d, pos)
    }

    #[test]
    fn wa_underestimates_hpwl() {
        let (d, pos) = star_design(6);
        let mut wa = WaModel::new(&d);
        for &gamma in &[0.1, 1.0, 10.0] {
            let smooth = wa.evaluate(&d, &pos, gamma);
            assert!(
                smooth <= d.hpwl_with_positions(&pos) + 1e-9,
                "gamma={gamma}"
            );
        }
    }

    #[test]
    fn wa_converges_to_hpwl_as_gamma_shrinks() {
        let (d, pos) = star_design(5);
        let mut wa = WaModel::new(&d);
        let exact = d.hpwl_with_positions(&pos);
        let coarse = wa.evaluate(&d, &pos, 5.0);
        let fine = wa.evaluate(&d, &pos, 0.05);
        assert!((fine - exact).abs() < (coarse - exact).abs());
        assert!((fine - exact).abs() < 0.05 * exact.max(1.0));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let (d, pos) = star_design(5);
        let mut wa = WaModel::new(&d);
        let gamma = 2.0;
        let mut grad = vec![Point::ORIGIN; pos.len()];
        wa.gradient(&d, &pos, gamma, &mut grad);
        let h = 1e-6;
        for i in 0..pos.len() {
            for axis in 0..2 {
                let mut plus = pos.clone();
                let mut minus = pos.clone();
                if axis == 0 {
                    plus[i].x += h;
                    minus[i].x -= h;
                } else {
                    plus[i].y += h;
                    minus[i].y -= h;
                }
                let fd =
                    (wa.evaluate(&d, &plus, gamma) - wa.evaluate(&d, &minus, gamma)) / (2.0 * h);
                let analytic = if axis == 0 { grad[i].x } else { grad[i].y };
                assert!(
                    (fd - analytic).abs() < 1e-5 * (1.0 + fd.abs()),
                    "cell {i} axis {axis}: fd {fd} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn gradient_is_translation_invariant() {
        let (d, pos) = star_design(4);
        let mut wa = WaModel::new(&d);
        let mut g1 = vec![Point::ORIGIN; 4];
        let w1 = wa.gradient(&d, &pos, 1.0, &mut g1);
        let shifted: Vec<Point> = pos.iter().map(|p| *p + Point::new(13.0, -7.0)).collect();
        let mut g2 = vec![Point::ORIGIN; 4];
        let w2 = wa.gradient(&d, &shifted, 1.0, &mut g2);
        assert!((w1 - w2).abs() < 1e-9 * w1.max(1.0));
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a.x - b.x).abs() < 1e-9 && (a.y - b.y).abs() < 1e-9);
        }
    }

    #[test]
    fn gradient_sums_to_zero_per_net() {
        // Wirelength forces are internal: they sum to zero over a net.
        let (d, pos) = star_design(7);
        let mut wa = WaModel::new(&d);
        let mut grad = vec![Point::ORIGIN; 7];
        wa.gradient(&d, &pos, 1.5, &mut grad);
        let sum = grad.iter().fold(Point::ORIGIN, |acc, g| acc + *g);
        assert!(sum.norm() < 1e-9);
    }

    #[test]
    fn extreme_spread_does_not_overflow() {
        // Cells 1e9 apart with tiny gamma — unshifted exponentials would be
        // infinite.
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 1e10, 1e10));
        let a = b.add_cell("a", 1.0, 1.0, CellKind::StdCell);
        let c = b.add_cell("b", 1.0, 1.0, CellKind::StdCell);
        b.add_net("n", vec![(a, Point::ORIGIN), (c, Point::ORIGIN)]);
        let d = b.build();
        let pos = vec![Point::new(0.0, 0.0), Point::new(1e9, 1e9)];
        let mut wa = WaModel::new(&d);
        let mut grad = vec![Point::ORIGIN; 2];
        let w = wa.gradient(&d, &pos, 1e-3, &mut grad);
        assert!(w.is_finite());
        assert!((w - 2e9).abs() < 1.0);
        assert!(grad.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn two_pin_gradient_direction() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 100.0, 100.0));
        let a = b.add_cell("a", 1.0, 1.0, CellKind::StdCell);
        let c = b.add_cell("b", 1.0, 1.0, CellKind::StdCell);
        b.add_net("n", vec![(a, Point::ORIGIN), (c, Point::ORIGIN)]);
        let d = b.build();
        let pos = vec![Point::new(10.0, 10.0), Point::new(20.0, 10.0)];
        let mut wa = WaModel::new(&d);
        let mut grad = vec![Point::ORIGIN; 2];
        wa.gradient(&d, &pos, 1.0, &mut grad);
        // The left cell is the min: increasing its x shrinks the net, so the
        // derivative of W with respect to its x is negative.
        assert!(grad[0].x < 0.0);
        assert!(grad[1].x > 0.0);
    }

    #[test]
    fn pin_offsets_shift_the_smooth_length() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 100.0, 100.0));
        let a = b.add_cell("a", 2.0, 2.0, CellKind::StdCell);
        let c = b.add_cell("b", 2.0, 2.0, CellKind::StdCell);
        b.add_net(
            "n",
            vec![(a, Point::new(1.0, 0.0)), (c, Point::new(-1.0, 0.0))],
        );
        let d = b.build();
        let pos = vec![Point::new(0.0, 0.0), Point::new(50.0, 0.0)];
        let mut wa = WaModel::new(&d);
        let w = wa.evaluate(&d, &pos, 0.01);
        assert!((w - 48.0).abs() < 1e-6);
    }

    /// A many-net design whose cells sit on several nets each.
    fn mesh_design(n_cells: usize) -> (Design, Vec<Point>) {
        let mut b = DesignBuilder::new("mesh", Rect::new(0.0, 0.0, 1000.0, 1000.0));
        let ids: Vec<_> = (0..n_cells)
            .map(|i| b.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::StdCell))
            .collect();
        for i in 0..n_cells {
            let j = (i * 7 + 3) % n_cells;
            let k = (i * 13 + 5) % n_cells;
            let mut pins = vec![(ids[i], Point::ORIGIN), (ids[j], Point::ORIGIN)];
            if k != i && k != j {
                pins.push((ids[k], Point::ORIGIN));
            }
            b.add_net(format!("n{i}"), pins);
        }
        let d = b.build();
        let pos: Vec<Point> = (0..n_cells)
            .map(|i| Point::new(((i * 31) % 997) as f64, ((i * 57) % 991) as f64))
            .collect();
        (d, pos)
    }

    fn assert_bitwise(a: &[Point], b: &[Point], threads: usize) {
        for (a, b) in a.iter().zip(b) {
            assert_eq!(a.x.to_bits(), b.x.to_bits(), "threads {threads}");
            assert_eq!(a.y.to_bits(), b.y.to_bits(), "threads {threads}");
        }
    }

    /// Every net value and every cell's sum has one owner that adds its
    /// terms in the serial order, so any split is bitwise serial.
    #[test]
    fn parallel_gradient_is_bitwise_serial() {
        let (d, pos) = mesh_design(400);
        let gamma = 4.0;
        let mut serial = WaModel::new(&d);
        let mut gs = vec![Point::ORIGIN; pos.len()];
        let ws = serial.gradient(&d, &pos, gamma, &mut gs);
        for threads in [2usize, 4, 7] {
            let mut par = WaModel::new(&d).with_exec(ExecConfig::with_threads(threads));
            let mut gp = vec![Point::ORIGIN; pos.len()];
            let wp = par.gradient(&d, &pos, gamma, &mut gp);
            assert_eq!(ws.to_bits(), wp.to_bits(), "threads {threads}");
            assert_bitwise(&gs, &gp, threads);
        }
    }

    #[test]
    fn repeated_parallel_gradients_stay_bitwise_stable() {
        let (d, pos) = mesh_design(400);
        let mut wa = WaModel::new(&d).with_exec(ExecConfig::with_threads(4));
        let mut g1 = vec![Point::ORIGIN; pos.len()];
        let w1 = wa.gradient(&d, &pos, 4.0, &mut g1);
        // A gradient-free evaluation in between leaves stale pin
        // derivatives behind; the next gradient must overwrite them.
        let _ = wa.evaluate(&d, &pos, 4.0);
        let mut g2 = vec![Point::new(9.0, 9.0); pos.len()];
        let w2 = wa.gradient(&d, &pos, 4.0, &mut g2);
        assert_eq!(w1.to_bits(), w2.to_bits());
        assert_bitwise(&g1, &g2, 4);
    }

    #[test]
    fn small_parallel_run_is_bitwise_serial() {
        // Gradient and plain evaluation, plus a buffer longer than the
        // design, whose tail is zeroed.
        let (d, pos) = mesh_design(200);
        let run = |exec: ExecConfig| {
            let mut wa = WaModel::new(&d).with_exec(exec);
            let mut g = vec![Point::new(1.0, 1.0); pos.len() + 3];
            let w = wa.gradient(&d, &pos, 3.0, &mut g);
            let e = wa.evaluate(&d, &pos, 3.0);
            (w, e, g)
        };
        let (ws, es, gs) = run(ExecConfig::serial());
        assert!(gs[pos.len()..].iter().all(|g| *g == Point::ORIGIN));
        let (wp, ep, gp) = run(ExecConfig::with_threads(4));
        assert_eq!(ws.to_bits(), wp.to_bits());
        assert_eq!(es.to_bits(), ep.to_bits());
        assert_bitwise(&gs, &gp, 4);
    }

    #[test]
    fn parallel_gradient_is_thread_count_invariant() {
        let (d, pos) = mesh_design(300);
        let run = |threads: usize| {
            let mut wa = WaModel::new(&d).with_exec(ExecConfig::with_threads(threads));
            let mut g = vec![Point::ORIGIN; pos.len()];
            let w = wa.gradient(&d, &pos, 3.0, &mut g);
            (w, g)
        };
        let (w2, g2) = run(2);
        for threads in [1usize, 3, 5, 8, 400] {
            let (w, g) = run(threads);
            assert_eq!(w.to_bits(), w2.to_bits(), "threads {threads}");
            assert_bitwise(&g, &g2, threads);
        }
    }

    #[test]
    #[should_panic(expected = "WA model built for")]
    fn gradient_rejects_a_design_with_another_net_count() {
        let (d, pos) = mesh_design(50);
        let mut wa = WaModel::new(&d);
        let (mut other, _) = mesh_design(50);
        other.nets.pop();
        let mut g = vec![Point::ORIGIN; pos.len()];
        wa.gradient(&other, &pos, 3.0, &mut g);
    }

    #[test]
    #[should_panic(expected = "WA model built for")]
    fn gradient_rejects_a_design_with_another_pin_count() {
        let (d, pos) = mesh_design(50);
        let mut wa = WaModel::new(&d);
        let (mut other, _) = mesh_design(50);
        let extra = other.nets[1].pins[0];
        other.nets[0].pins.push(extra);
        let mut g = vec![Point::ORIGIN; pos.len()];
        wa.gradient(&other, &pos, 3.0, &mut g);
    }
}
