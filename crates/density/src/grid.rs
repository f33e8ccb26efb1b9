use crate::SMOOTH_FACTOR;
use eplace_exec::{for_each_span, ExecConfig};
use eplace_geometry::{overlap_1d, Point, Rect, Size};
use eplace_obs::Obs;
use eplace_spectral::Transform2d;
use std::f64::consts::PI;
use std::ops::Range;

/// A movable object as the density system sees it: a size, whether it
/// counts toward density *overflow* (fillers do not — they are whitespace),
/// and its density scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityObject {
    /// Physical outline of the object.
    pub size: Size,
    /// `true` for real cells/macros, `false` for fillers.
    pub counts_in_overflow: bool,
    /// Charge/usage scale. 1.0 for standard cells and fillers; ρ_t for
    /// movable macros: a macro is solid (local density 1) and cannot be
    /// diluted to a ρ_t < 1 equilibrium, so its charge is scaled exactly
    /// like fixed blockages' (the ePlace-MS/RePlAce macro density scaling).
    pub density_scale: f64,
}

impl DensityObject {
    /// A real movable object (standard cell, or macro at ρ_t = 1).
    pub fn movable(size: Size) -> Self {
        DensityObject {
            size,
            counts_in_overflow: true,
            density_scale: 1.0,
        }
    }

    /// A movable macro under density target `rho_t`: solid area whose
    /// charge and overflow usage scale by ρ_t.
    pub fn movable_macro(size: Size, rho_t: f64) -> Self {
        DensityObject {
            size,
            counts_in_overflow: true,
            density_scale: rho_t,
        }
    }

    /// A whitespace filler: deposits charge but never counts as overflow.
    pub fn filler(size: Size) -> Self {
        DensityObject {
            size,
            counts_in_overflow: false,
            density_scale: 1.0,
        }
    }

    /// The object's electric quantity `q_i` (its scaled area, paper Eq. 5).
    #[inline]
    pub fn charge(&self) -> f64 {
        self.size.area() * self.density_scale
    }
}

/// The electrostatic bin grid: charge accumulation, spectral Poisson solve,
/// and per-object energy/gradient sampling.
///
/// Lifecycle per optimizer iteration:
///
/// 1. [`DensityGrid::deposit`] with the current positions,
/// 2. [`DensityGrid::solve`],
/// 3. [`DensityGrid::gradient`] / [`DensityGrid::energy`] per object, and
///    [`DensityGrid::overflow`] for the stopping criterion.
///
/// See the crate docs for the math. All buffers are preallocated; the only
/// per-iteration cost is the deposit sweep and four 2-D transforms.
#[derive(Debug, Clone)]
pub struct DensityGrid {
    region: Rect,
    nx: usize,
    ny: usize,
    bin_w: f64,
    bin_h: f64,
    target_density: f64,
    /// Blockage area from fixed objects per bin (consumes overflow
    /// capacity; physical area units).
    fixed: Vec<f64>,
    /// ρ_t-scaled charge of fixed objects (what enters the potential).
    fixed_charge: Vec<f64>,
    /// Work buffer: total charge per bin for the current iteration.
    charge: Vec<f64>,
    /// Raw (uninflated) area of overflow-counting movables per bin.
    usage: Vec<f64>,
    /// Potential ψ per bin (bin-index space units).
    potential: Vec<f64>,
    /// ∂ψ/∂x per bin, in physical (layout-unit) space.
    field_x: Vec<f64>,
    /// ∂ψ/∂y per bin, in physical space.
    field_y: Vec<f64>,
    transform: Transform2d,
    coeff: Vec<f64>,
    /// Laplacian eigenfrequencies in bin-index space, `w_u = πu/nx`, and
    /// their squares — hoisted out of [`DensityGrid::solve`] so the
    /// coefficient-prep loop does table lookups instead of per-bin
    /// trigonometry-free but division-heavy recomputation. The tables hold
    /// the exact expressions the loop used to evaluate inline, so the solve
    /// stays bit-identical.
    wx_tab: Vec<f64>,
    wy_tab: Vec<f64>,
    wx2_tab: Vec<f64>,
    wy2_tab: Vec<f64>,
    /// Σ of overflow-counting movable area at the last deposit.
    movable_area: f64,
    solved: bool,
    /// Execution policy for the deposit sweep and the spectral solve.
    exec: ExecConfig,
    /// Observability recorder (disabled by default — zero overhead).
    obs: Obs,
}

impl DensityGrid {
    /// Creates a grid of `nx × ny` bins over `region` with density target
    /// `target_density` (`ρ_t`).
    ///
    /// # Panics
    ///
    /// Panics if the region is degenerate, a dimension is not a power of
    /// two, or `target_density` is not in `(0, 1]`.
    pub fn new(region: Rect, nx: usize, ny: usize, target_density: f64) -> Self {
        assert!(region.is_valid(), "degenerate placement region");
        assert!(
            target_density > 0.0 && target_density <= 1.0,
            "target density must be in (0, 1], got {target_density}"
        );
        let bins = nx * ny;
        let wx_tab: Vec<f64> = (0..nx).map(|u| PI * u as f64 / nx as f64).collect();
        let wy_tab: Vec<f64> = (0..ny).map(|v| PI * v as f64 / ny as f64).collect();
        let wx2_tab: Vec<f64> = wx_tab.iter().map(|w| w * w).collect();
        let wy2_tab: Vec<f64> = wy_tab.iter().map(|w| w * w).collect();
        DensityGrid {
            region,
            nx,
            ny,
            bin_w: region.width() / nx as f64,
            bin_h: region.height() / ny as f64,
            target_density,
            fixed: vec![0.0; bins],
            fixed_charge: vec![0.0; bins],
            charge: vec![0.0; bins],
            usage: vec![0.0; bins],
            potential: vec![0.0; bins],
            field_x: vec![0.0; bins],
            field_y: vec![0.0; bins],
            transform: Transform2d::new(nx, ny).unwrap_or_else(|e| panic!("{e}")),
            coeff: vec![0.0; bins],
            wx_tab,
            wy_tab,
            wx2_tab,
            wy2_tab,
            movable_area: 0.0,
            solved: false,
            exec: ExecConfig::serial(),
            obs: Obs::disabled(),
        }
    }

    /// Sets the execution policy. The deposit gives each worker a band of
    /// bin rows that it fills in object order, and the spectral transform
    /// (which this propagates to) gives each worker whole rows and columns,
    /// so every thread count, serial included, produces the same bits.
    pub fn set_exec(&mut self, exec: ExecConfig) {
        self.exec = exec;
        self.transform.set_exec(exec);
    }

    /// Builder-style [`DensityGrid::set_exec`].
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.set_exec(exec);
        self
    }

    /// Sets the observability recorder: deposits record a `density_deposit`
    /// span and solves a `density_solve` span. The recorder never feeds
    /// back into the numerics, so results are bit-identical either way.
    /// Does not propagate to the owned [`Transform2d`]: the solve-level span
    /// already covers its four transforms.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Builder-style [`DensityGrid::set_obs`].
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// Grid width in bins.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in bins.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Physical bin width (drives the γ schedule).
    #[inline]
    pub fn bin_width(&self) -> f64 {
        self.bin_w
    }

    /// Physical bin height.
    #[inline]
    pub fn bin_height(&self) -> f64 {
        self.bin_h
    }

    /// The placement region the grid covers.
    #[inline]
    pub fn region(&self) -> Rect {
        self.region
    }

    /// The density upper bound ρ_t.
    #[inline]
    pub fn target_density(&self) -> f64 {
        self.target_density
    }

    /// Registers a fixed object's outline. Fixed charge participates in the
    /// potential (the density function is "generalized without special
    /// handling of fixed blocks", §IV) and consumes bin capacity for the
    /// overflow metric. Call before the first [`DensityGrid::deposit`].
    ///
    /// The *charge* of a fixed block is scaled by ρ_t (its blockage area for
    /// the overflow capacity is not): with ρ_t < 1 the electrostatic
    /// equilibrium is a uniform total density, and unscaled blockages (local
    /// density 1) would make that equilibrium exceed ρ_t in the free area —
    /// λ then diverges without the overflow ever reaching the target. With
    /// the scaling, the feasible equilibrium is exactly ρ_t everywhere.
    pub fn add_fixed(&mut self, rect: Rect) {
        let clipped = match rect.intersection(&self.region) {
            Some(r) => r,
            None => return,
        };
        let charge_scale = self.target_density;
        // Fixed blocks are deposited exactly (no inflation): they are
        // typically much larger than a bin.
        let (ix0, ix1) = self.bin_range_x(clipped.xl, clipped.xh);
        let (iy0, iy1) = self.bin_range_y(clipped.yl, clipped.yh);
        for iy in iy0..iy1 {
            let (byl, byh) = self.bin_span_y(iy);
            let oy = overlap_1d(clipped.yl, clipped.yh, byl, byh);
            for ix in ix0..ix1 {
                let (bxl, bxh) = self.bin_span_x(ix);
                let ox = overlap_1d(clipped.xl, clipped.xh, bxl, bxh);
                let idx = iy * self.nx + ix;
                self.fixed[idx] += ox * oy;
                self.fixed_charge[idx] += ox * oy * charge_scale;
            }
        }
    }

    /// Deposits the movable objects at positions `pos` (parallel slices).
    /// Objects are clamped to the region; small objects are inflated to
    /// `√2 ×` the bin dimension with scaled density (charge preserved).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn deposit(&mut self, objects: &[DensityObject], pos: &[Point]) {
        assert_eq!(
            objects.len(),
            pos.len(),
            "objects/positions length mismatch"
        );
        let _span = self.obs.span("density_deposit");
        self.charge.copy_from_slice(&self.fixed_charge);
        self.usage.fill(0.0);
        self.movable_area = objects
            .iter()
            .filter(|obj| obj.counts_in_overflow)
            .fold(0.0, |area, obj| area + obj.charge());
        let mut charge = std::mem::take(&mut self.charge);
        let mut usage = std::mem::take(&mut self.usage);
        let nx = self.nx;
        let this: &DensityGrid = self;
        // Each worker owns a band of bin rows in both maps and sweeps every
        // object in object order, so each bin sums its terms in that order
        // whatever the band split.
        for_each_span(
            &this.exec,
            this.ny,
            (&mut charge[..], &mut usage[..]),
            |(charge, usage), head| {
                let (charge_head, charge_tail) = charge.split_at_mut(head.len() * nx);
                let (usage_head, usage_tail) = usage.split_at_mut(head.len() * nx);
                ((charge_head, usage_head), (charge_tail, usage_tail))
            },
            &mut Vec::new(),
            || (),
            |rows, (charge, usage), _| {
                for (obj, &p) in objects.iter().zip(pos) {
                    let (rect, scale) = this.smoothed_footprint(obj, p);
                    this.add_overlap(rect, scale, &rows, charge);
                    if obj.counts_in_overflow {
                        let raw = Rect::from_center(p, obj.size.width, obj.size.height);
                        this.add_overlap(raw, obj.density_scale, &rows, usage);
                    }
                }
            },
        );
        self.charge = charge;
        self.usage = usage;
        self.solved = false;
    }

    /// The inflated footprint and density scale used when depositing `obj`
    /// centered at `p` (public so the optimizer can reuse the exact stencil
    /// for gradient sampling tests).
    pub fn smoothed_footprint(&self, obj: &DensityObject, p: Point) -> (Rect, f64) {
        let min_w = SMOOTH_FACTOR * self.bin_w;
        let min_h = SMOOTH_FACTOR * self.bin_h;
        let w = obj.size.width.max(min_w);
        let h = obj.size.height.max(min_h);
        let scale = (obj.size.width / w) * (obj.size.height / h) * obj.density_scale;
        let center =
            self.region
                .clamp_center(p, w.min(self.region.width()), h.min(self.region.height()));
        (Rect::from_center(center, w, h), scale)
    }

    /// Adds `scale ×` the overlap area of `rect` (clipped to the region)
    /// with each bin of rows `rows` into `band`, those rows of a map.
    fn add_overlap(&self, rect: Rect, scale: f64, rows: &Range<usize>, band: &mut [f64]) {
        let Some(clipped) = rect.intersection(&self.region) else {
            return;
        };
        let (iy0, iy1) = self.bin_range_y(clipped.yl, clipped.yh);
        let (iy0, iy1) = (iy0.max(rows.start), iy1.min(rows.end));
        if iy0 >= iy1 {
            return;
        }
        let (ix0, ix1) = self.bin_range_x(clipped.xl, clipped.xh);
        for iy in iy0..iy1 {
            let (byl, byh) = self.bin_span_y(iy);
            let oy = overlap_1d(clipped.yl, clipped.yh, byl, byh);
            let row = &mut band[(iy - rows.start) * self.nx..];
            for (ix, bin) in (ix0..ix1).zip(&mut row[ix0..ix1]) {
                let (bxl, bxh) = self.bin_span_x(ix);
                let ox = overlap_1d(clipped.xl, clipped.xh, bxl, bxh);
                *bin += ox * oy * scale;
            }
        }
    }

    /// Solves the Poisson equation for the charge deposited by the last
    /// [`DensityGrid::deposit`], producing the potential and field maps.
    ///
    /// # Panics
    ///
    /// Panics if called before any deposit.
    pub fn solve(&mut self) {
        let _span = self.obs.span("density_solve");
        let bin_area = self.bin_w * self.bin_h;
        // ρ per bin (dimensionless utilization); analysis transform.
        for (c, rho) in self.charge.iter().zip(self.coeff.iter_mut()) {
            *rho = *c / bin_area;
        }
        self.transform.dct2(&mut self.coeff);

        // Inverse Laplacian eigenvalues in bin-index space: w_u = πu/nx,
        // read from the tables hoisted into the constructor.
        let nx = self.nx;
        let ny = self.ny;

        // Coefficient prep: ψ = a/(w_u² + w_v²) ((0,0) dropped), field
        // coefficients carry the extra w factor from differentiation.
        for v in 0..ny {
            let wyv = self.wy_tab[v];
            let wy2v = self.wy2_tab[v];
            let row = v * nx;
            for u in 0..nx {
                let idx = row + u;
                let lambda = self.wx2_tab[u] + wy2v;
                let c = if lambda > 0.0 {
                    self.coeff[idx] / lambda
                } else {
                    0.0
                };
                self.potential[idx] = c;
                self.field_x[idx] = c * self.wx_tab[u];
                self.field_y[idx] = c * wyv;
            }
        }

        // Exact-inverse normalization and unit conversion constants
        // (fields become physical ∂ψ/∂x, ∂ψ/∂y; the sine synthesis carries
        // a −1 from differentiating the cosine basis). Each synthesis fuses
        // its elementwise scale into the final transform store — the
        // identical `v·scale` products the historical separate passes
        // computed, three full-grid passes cheaper.
        let inv_norm = 4.0 / (nx as f64 * ny as f64);
        let scale_x = -inv_norm / self.bin_w;
        let scale_y = -inv_norm / self.bin_h;

        // The syntheses run one after another; each is parallel inside its
        // row and column passes.
        self.transform.dct3_scaled(&mut self.potential, inv_norm);
        self.transform.dst3_x_scaled(&mut self.field_x, scale_x);
        self.transform.dst3_y_scaled(&mut self.field_y, scale_y);
        self.solved = true;
    }

    /// Density gradient `∂N/∂(x_i, y_i) = 2·q_i·(∂ψ/∂x, ∂ψ/∂y)` (paper
    /// Eq. 8), sampled over the object's smoothed footprint.
    ///
    /// # Panics
    ///
    /// Panics if [`DensityGrid::solve`] has not run since the last deposit.
    pub fn gradient(&self, obj: &DensityObject, p: Point) -> Point {
        assert!(self.solved, "gradient requested before solve");
        let [gx, gy] = self.sample(obj, p, [&self.field_x, &self.field_y]);
        Point::new(2.0 * gx, 2.0 * gy)
    }

    /// Potential energy `N_i = q_i·ψ_i` of one object (paper Eq. 5).
    ///
    /// # Panics
    ///
    /// Panics if [`DensityGrid::solve`] has not run since the last deposit.
    pub fn energy(&self, obj: &DensityObject, p: Point) -> f64 {
        assert!(self.solved, "energy requested before solve");
        let [e] = self.sample(obj, p, [&self.potential]);
        e
    }

    /// Total system energy `N(v) = Σ_b charge_b·ψ_b` — one pass over bins.
    ///
    /// # Panics
    ///
    /// Panics if [`DensityGrid::solve`] has not run since the last deposit.
    pub fn total_energy(&self) -> f64 {
        assert!(self.solved, "energy requested before solve");
        // Charge (physical area) × potential — consistent with the
        // per-object sampling of [`DensityGrid::energy`] and with the
        // gradient, so N(v) and ∂N/∂v describe the same function.
        self.charge
            .iter()
            .zip(&self.potential)
            .map(|(c, psi)| c * psi)
            .sum()
    }

    /// Charge-weighted samples of `maps` over the object footprint: returns
    /// `Σ o_b·map_b` for each map, so the gradient reads only the two field
    /// maps and the energy only ψ.
    fn sample<const N: usize>(&self, obj: &DensityObject, p: Point, maps: [&[f64]; N]) -> [f64; N] {
        let mut sums = [0.0; N];
        let (rect, scale) = self.smoothed_footprint(obj, p);
        let clipped = match rect.intersection(&self.region) {
            Some(r) => r,
            None => return sums,
        };
        let (ix0, ix1) = self.bin_range_x(clipped.xl, clipped.xh);
        let (iy0, iy1) = self.bin_range_y(clipped.yl, clipped.yh);
        for iy in iy0..iy1 {
            let (byl, byh) = self.bin_span_y(iy);
            let oy = overlap_1d(clipped.yl, clipped.yh, byl, byh);
            for ix in ix0..ix1 {
                let (bxl, bxh) = self.bin_span_x(ix);
                let ox = overlap_1d(clipped.xl, clipped.xh, bxl, bxh);
                let o = ox * oy * scale;
                let idx = iy * self.nx + ix;
                for (sum, map) in sums.iter_mut().zip(maps) {
                    *sum += o * map[idx];
                }
            }
        }
        sums
    }

    /// Density overflow `τ`: the fraction of movable area sitting above the
    /// per-bin capacity `ρ_t·(bin − fixed)`, i.e.
    /// `Σ_b max(0, usage_b − ρ_t·free_b) / Σ movable area`. Fillers are
    /// excluded. This is the mGP stopping criterion (`τ ≤ 10 %`).
    pub fn overflow(&self) -> f64 {
        if self.movable_area <= 0.0 {
            return 0.0;
        }
        let bin_area = self.bin_w * self.bin_h;
        let mut over = 0.0;
        for (u, f) in self.usage.iter().zip(&self.fixed) {
            let free = (bin_area - f).max(0.0);
            over += (u - self.target_density * free).max(0.0);
        }
        over / self.movable_area
    }

    /// Bin-based object overlap area: `Σ_b max(0, usage_b − free_b)` with
    /// `free_b = bin − fixed` — the amount of real movable area that
    /// physically cannot fit where it sits. This is the overlap series `O`
    /// plotted in the paper's Figures 2/3/6.
    pub fn overfill_area(&self) -> f64 {
        let bin_area = self.bin_w * self.bin_h;
        self.usage
            .iter()
            .zip(&self.fixed)
            .map(|(u, f)| (u - (bin_area - f).max(0.0)).max(0.0))
            .sum()
    }

    /// Per-bin utilization (`usage / free capacity`) map, row-major — used by
    /// the visualization example and the ISPD-2006 scaled-HPWL scorer.
    pub fn utilization_map(&self) -> Vec<f64> {
        let bin_area = self.bin_w * self.bin_h;
        self.usage
            .iter()
            .zip(&self.fixed)
            .map(|(u, f)| {
                let free = (bin_area - f).max(1e-12);
                u / free
            })
            .collect()
    }

    /// The potential map ψ (row-major), for inspection/visualization.
    pub fn potential_map(&self) -> &[f64] {
        &self.potential
    }

    /// The field maps (∂ψ/∂x, ∂ψ/∂y), row-major.
    pub fn field_maps(&self) -> (&[f64], &[f64]) {
        (&self.field_x, &self.field_y)
    }

    /// Charge per bin (fixed + movable + filler), row-major.
    pub fn charge_map(&self) -> &[f64] {
        &self.charge
    }

    #[inline]
    fn bin_span_x(&self, ix: usize) -> (f64, f64) {
        let lo = self.region.xl + ix as f64 * self.bin_w;
        (lo, lo + self.bin_w)
    }

    #[inline]
    fn bin_span_y(&self, iy: usize) -> (f64, f64) {
        let lo = self.region.yl + iy as f64 * self.bin_h;
        (lo, lo + self.bin_h)
    }

    /// Clamps a floating-point bin coordinate into `[0, n]` *before* the
    /// `usize` cast. The old code leaned on Rust's saturating float→int cast
    /// to absorb negative values (an interval entirely left of the region
    /// produced a negative `ceil` that saturated to bin 0); the clamp makes
    /// the intent explicit and keeps the helpers correct even if the cast
    /// semantics ever change. NaN clamps to NaN and casts to 0 — an empty
    /// range, never a panic.
    #[inline]
    fn clamp_bin(t: f64, n: usize) -> usize {
        t.clamp(0.0, n as f64) as usize
    }

    #[inline]
    fn bin_range_x(&self, xl: f64, xh: f64) -> (usize, usize) {
        let lo = Self::clamp_bin(((xl - self.region.xl) / self.bin_w).floor(), self.nx);
        let hi = Self::clamp_bin(((xh - self.region.xl) / self.bin_w).ceil(), self.nx);
        (lo, hi)
    }

    #[inline]
    fn bin_range_y(&self, yl: f64, yh: f64) -> (usize, usize) {
        let lo = Self::clamp_bin(((yl - self.region.yl) / self.bin_h).floor(), self.ny);
        let hi = Self::clamp_bin(((yh - self.region.yl) / self.bin_h).ceil(), self.ny);
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid64() -> DensityGrid {
        DensityGrid::new(Rect::new(0.0, 0.0, 64.0, 64.0), 16, 16, 1.0)
    }

    #[test]
    fn deposit_conserves_charge() {
        let mut g = grid64();
        let objs = vec![
            DensityObject::movable(Size::new(3.0, 5.0)),
            DensityObject::movable(Size::new(10.0, 2.0)),
            DensityObject::filler(Size::new(4.0, 4.0)),
        ];
        let pos = vec![
            Point::new(10.0, 10.0),
            Point::new(40.0, 50.0),
            Point::new(32.0, 32.0),
        ];
        g.deposit(&objs, &pos);
        let total: f64 = g.charge_map().iter().sum();
        let expect: f64 = objs.iter().map(|o| o.charge()).sum();
        assert!((total - expect).abs() < 1e-9);
    }

    #[test]
    fn small_cell_inflation_preserves_charge() {
        let mut g = grid64(); // bins are 4x4, so a 1x1 cell is inflated
        let objs = vec![DensityObject::movable(Size::new(1.0, 1.0))];
        g.deposit(&objs, &[Point::new(30.0, 30.0)]);
        let total: f64 = g.charge_map().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Inflated footprint spreads beyond one bin.
        let occupied = g.charge_map().iter().filter(|&&c| c > 1e-12).count();
        assert!(occupied > 1);
    }

    #[test]
    fn out_of_region_positions_are_clamped() {
        let mut g = grid64();
        let objs = vec![DensityObject::movable(Size::new(6.0, 6.0))];
        g.deposit(&objs, &[Point::new(-100.0, 500.0)]);
        let total: f64 = g.charge_map().iter().sum();
        assert!((total - 36.0).abs() < 1e-9);
    }

    #[test]
    fn potential_has_zero_mean() {
        let mut g = grid64();
        let objs = vec![DensityObject::movable(Size::new(8.0, 8.0))];
        g.deposit(&objs, &[Point::new(20.0, 20.0)]);
        g.solve();
        let mean: f64 = g.potential_map().iter().sum::<f64>() / 256.0;
        assert!(mean.abs() < 1e-9, "zero-frequency removal failed: {mean}");
    }

    #[test]
    fn potential_satisfies_poisson_discretely() {
        // ∇²ψ ≈ −(ρ − ρ̄): compare the spectral solution against a
        // finite-difference Laplacian away from numerical noise.
        let region = Rect::new(0.0, 0.0, 32.0, 32.0);
        let mut g = DensityGrid::new(region, 32, 32, 1.0);
        let objs = vec![DensityObject::movable(Size::new(6.0, 6.0))];
        g.deposit(&objs, &[Point::new(16.0, 16.0)]);
        g.solve();
        let psi = g.potential_map();
        let n = 32;
        // Spectral ∇² of the cosine series differs from the 5-point stencil
        // by O(h²) per mode; verify the sign/shape correlation instead of
        // exact equality: the Laplacian should be most negative where the
        // charge is (center), and the correlation with −ρ strongly positive.
        let rho_mean: f64 = g.charge_map().iter().sum::<f64>() / (n * n) as f64;
        let mut dot = 0.0;
        let mut nrm_a = 0.0;
        let mut nrm_b = 0.0;
        for y in 1..n - 1 {
            for x in 1..n - 1 {
                let idx = y * n + x;
                let lap =
                    psi[idx - 1] + psi[idx + 1] + psi[idx - n] + psi[idx + n] - 4.0 * psi[idx];
                let target = -(g.charge_map()[idx] - rho_mean);
                dot += lap * target;
                nrm_a += lap * lap;
                nrm_b += target * target;
            }
        }
        let corr = dot / (nrm_a.sqrt() * nrm_b.sqrt());
        assert!(corr > 0.97, "Poisson residual too large: corr={corr}");
    }

    #[test]
    fn field_pushes_objects_apart() {
        let mut g = grid64();
        let objs = vec![
            DensityObject::movable(Size::new(8.0, 8.0)),
            DensityObject::movable(Size::new(8.0, 8.0)),
        ];
        // Two objects side by side near the center.
        let pos = vec![Point::new(28.0, 32.0), Point::new(36.0, 32.0)];
        g.deposit(&objs, &pos);
        g.solve();
        let g_left = g.gradient(&objs[0], pos[0]);
        let g_right = g.gradient(&objs[1], pos[1]);
        // Descent direction −gradient must separate them.
        assert!(g_left.x > 0.0, "left object should be pushed left");
        assert!(g_right.x < 0.0, "right object should be pushed right");
    }

    #[test]
    fn gradient_scales_with_charge() {
        let mut g = grid64();
        let small = DensityObject::movable(Size::new(4.0, 4.0));
        let big = DensityObject::movable(Size::new(8.0, 8.0));
        let anchor = DensityObject::movable(Size::new(16.0, 16.0));
        let pos = vec![
            Point::new(20.0, 32.0),
            Point::new(20.0, 32.0),
            Point::new(40.0, 32.0),
        ];
        g.deposit(&[small, big, anchor], &pos);
        g.solve();
        let gs = g.gradient(&small, pos[0]).norm();
        let gb = g.gradient(&big, pos[1]).norm();
        assert!(gb > gs, "larger charge must feel a larger force");
    }

    #[test]
    fn equilibrium_has_negligible_field() {
        // A perfectly uniform layout: gradient ≈ 0 everywhere.
        let mut g = grid64();
        let mut objs = Vec::new();
        let mut pos = Vec::new();
        for iy in 0..16 {
            for ix in 0..16 {
                objs.push(DensityObject::movable(Size::new(4.0, 4.0)));
                pos.push(Point::new(2.0 + 4.0 * ix as f64, 2.0 + 4.0 * iy as f64));
            }
        }
        g.deposit(&objs, &pos);
        g.solve();
        // Interior cells (inflated footprints unaffected by the boundary
        // clamp) must feel essentially no force; compare against the force
        // the same cells feel when everything piles onto the center.
        let interior_peak = pos
            .iter()
            .zip(&objs)
            .filter(|(p, _)| p.x > 10.0 && p.x < 54.0 && p.y > 10.0 && p.y < 54.0)
            .map(|(&p, o)| g.gradient(o, p).norm())
            .fold(0.0f64, f64::max);
        let piled = vec![Point::new(32.0, 32.0); objs.len()];
        g.deposit(&objs, &piled);
        g.solve();
        // Probe the force felt just beside the pile (at the pile center it
        // is zero by symmetry).
        let piled_ref = g.gradient(&objs[0], Point::new(40.0, 32.0)).norm();
        assert!(
            interior_peak < 1e-2 * piled_ref,
            "uniform layout should be near equilibrium: interior {interior_peak} vs piled {piled_ref}"
        );
    }

    #[test]
    fn overflow_zero_when_spread_and_one_when_piled() {
        let mut g = grid64();
        let objs: Vec<_> = (0..16)
            .map(|_| DensityObject::movable(Size::new(4.0, 4.0)))
            .collect();
        // Spread: one per bin row.
        let spread: Vec<Point> = (0..16)
            .map(|i| {
                Point::new(
                    2.0 + 4.0 * (i % 16) as f64,
                    2.0 + 4.0 * (i / 16) as f64 * 4.0,
                )
            })
            .collect();
        g.deposit(&objs, &spread);
        assert!(g.overflow() < 1e-9);
        // Piled: all on one spot → nearly everything overflows.
        let piled = vec![Point::new(32.0, 32.0); 16];
        g.deposit(&objs, &piled);
        assert!(g.overflow() > 0.7, "overflow was {}", g.overflow());
    }

    #[test]
    fn fillers_do_not_count_in_overflow() {
        let mut g = grid64();
        let objs = vec![DensityObject::filler(Size::new(16.0, 16.0)); 8];
        let pos = vec![Point::new(32.0, 32.0); 8];
        g.deposit(&objs, &pos);
        assert_eq!(g.overflow(), 0.0);
    }

    #[test]
    fn fixed_charge_reduces_capacity() {
        let mut g = grid64();
        // Fixed macro covers the left half.
        g.add_fixed(Rect::new(0.0, 0.0, 32.0, 64.0));
        let objs = vec![DensityObject::movable(Size::new(8.0, 8.0))];
        let pos = vec![Point::new(16.0, 32.0)]; // on top of the fixed block
        g.deposit(&objs, &pos);
        assert!(g.overflow() > 0.9, "cell atop a blockage must overflow");
        // Same cell in the free half: no overflow.
        g.deposit(&objs, &[Point::new(48.0, 32.0)]);
        assert!(g.overflow() < 1e-9);
    }

    #[test]
    fn fixed_charge_generates_repulsive_field() {
        let mut g = grid64();
        g.add_fixed(Rect::new(24.0, 24.0, 40.0, 40.0));
        let obj = DensityObject::movable(Size::new(4.0, 4.0));
        let pos = Point::new(44.0, 32.0); // just right of the blockage
        g.deposit(&[obj], &[pos]);
        g.solve();
        let grad = g.gradient(&obj, pos);
        assert!(
            grad.x < 0.0,
            "descent must push the cell away from the blockage"
        );
    }

    #[test]
    fn total_energy_decreases_when_spreading() {
        let mut g = grid64();
        let objs: Vec<_> = (0..4)
            .map(|_| DensityObject::movable(Size::new(8.0, 8.0)))
            .collect();
        let piled = vec![Point::new(32.0, 32.0); 4];
        g.deposit(&objs, &piled);
        g.solve();
        let e_piled = g.total_energy();
        let spread = vec![
            Point::new(16.0, 16.0),
            Point::new(48.0, 16.0),
            Point::new(16.0, 48.0),
            Point::new(48.0, 48.0),
        ];
        g.deposit(&objs, &spread);
        g.solve();
        let e_spread = g.total_energy();
        assert!(
            e_spread < e_piled,
            "spreading must reduce energy: {e_spread} !< {e_piled}"
        );
    }

    #[test]
    fn gradient_matches_energy_finite_difference() {
        // ∂N/∂x via the field must match numerically differentiating the
        // total energy. This validates the factor 2 of Eq. (8).
        let region = Rect::new(0.0, 0.0, 64.0, 64.0);
        let objs = vec![
            DensityObject::movable(Size::new(10.0, 10.0)),
            DensityObject::movable(Size::new(12.0, 12.0)),
        ];
        let pos = vec![Point::new(26.0, 30.0), Point::new(38.0, 34.0)];
        let mut g = DensityGrid::new(region, 64, 64, 1.0);
        g.deposit(&objs, &pos);
        g.solve();
        let analytic = g.gradient(&objs[0], pos[0]);

        let total_at = |p0: Point| {
            let mut gg = DensityGrid::new(region, 64, 64, 1.0);
            let pp = vec![p0, pos[1]];
            gg.deposit(&objs, &pp);
            gg.solve();
            // N(v) = Σ_i q_i ψ_i over both objects.
            gg.energy(&objs[0], pp[0]) + gg.energy(&objs[1], pp[1])
        };
        let h = 0.25;
        let fd_x = (total_at(Point::new(pos[0].x + h, pos[0].y))
            - total_at(Point::new(pos[0].x - h, pos[0].y)))
            / (2.0 * h);
        assert!(
            (fd_x - analytic.x).abs() < 0.1 * analytic.x.abs().max(1e-3),
            "fd {fd_x} vs analytic {}",
            analytic.x
        );
    }

    #[test]
    #[should_panic(expected = "before solve")]
    fn gradient_before_solve_panics() {
        let mut g = grid64();
        let obj = DensityObject::movable(Size::new(4.0, 4.0));
        g.deposit(&[obj], &[Point::new(32.0, 32.0)]);
        let _ = g.gradient(&obj, Point::new(32.0, 32.0));
    }

    #[test]
    #[should_panic(expected = "target density")]
    fn bad_target_density_panics() {
        let _ = DensityGrid::new(Rect::new(0.0, 0.0, 1.0, 1.0), 4, 4, 0.0);
    }

    #[test]
    fn bin_ranges_clamp_to_grid_explicitly() {
        let g = grid64(); // 16×16 bins over [0,64]²
                          // Interval entirely left of / below the region: empty range at 0.
        assert_eq!(g.bin_range_x(-50.0, -10.0), (0, 0));
        assert_eq!(g.bin_range_y(-3.0, -1.0), (0, 0));
        // Entirely right of / above: empty range pinned at nx/ny.
        assert_eq!(g.bin_range_x(100.0, 200.0), (16, 16));
        assert_eq!(g.bin_range_y(64.0, 80.0), (16, 16));
        // Straddling both edges: the full grid.
        assert_eq!(g.bin_range_x(-10.0, 100.0), (0, 16));
        // Zero-width interval on a bin boundary: empty range (no bin visited).
        assert_eq!(g.bin_range_x(8.0, 8.0), (2, 2));
        // Zero-width interval inside a bin: one bin, whose overlap is zero.
        assert_eq!(g.bin_range_x(9.0, 9.0), (2, 3));
        // Non-finite input degrades to an empty range instead of panicking.
        assert_eq!(g.bin_range_x(f64::NAN, f64::NAN), (0, 0));
    }

    #[test]
    fn zero_area_objects_deposit_nothing() {
        // A zero-width or zero-height object has zero charge; its inflated
        // footprint must deposit exactly zero everywhere (the density scale
        // collapses to 0), not a sliver from the clamped bin range.
        for size in [
            Size::new(0.0, 4.0),
            Size::new(4.0, 0.0),
            Size::new(0.0, 0.0),
        ] {
            let mut g = grid64();
            let obj = DensityObject::movable(size);
            g.deposit(&[obj], &[Point::new(30.0, 30.0)]);
            assert!(
                g.charge_map().iter().all(|&c| c == 0.0),
                "zero-area {size:?} deposited charge"
            );
            assert_eq!(g.overflow(), 0.0);
            g.solve(); // must not panic on an all-zero charge map
            assert!(g.potential_map().iter().all(|p| p.is_finite()));
        }
    }

    #[test]
    fn eigenvalue_tables_match_inline_evaluation() {
        // The hoisted tables must hold exactly the values the solve loop
        // historically computed inline — bitwise.
        let g = DensityGrid::new(Rect::new(0.0, 0.0, 48.0, 96.0), 8, 32, 1.0);
        for u in 0..8 {
            let w = PI * u as f64 / 8.0;
            assert_eq!(g.wx_tab[u].to_bits(), w.to_bits());
            assert_eq!(g.wx2_tab[u].to_bits(), (w * w).to_bits());
        }
        for v in 0..32 {
            let w = PI * v as f64 / 32.0;
            assert_eq!(g.wy_tab[v].to_bits(), w.to_bits());
            assert_eq!(g.wy2_tab[v].to_bits(), (w * w).to_bits());
        }
    }

    #[test]
    fn utilization_map_reflects_usage() {
        let mut g = grid64();
        let objs = vec![DensityObject::movable(Size::new(4.0, 4.0))];
        g.deposit(&objs, &[Point::new(2.0, 2.0)]); // exactly bin (0,0)
        let util = g.utilization_map();
        assert!((util[0] - 1.0).abs() < 1e-9);
        assert!(util[1].abs() < 1e-9);
    }
}

#[cfg(test)]
mod energy_consistency_tests {
    use super::*;

    #[test]
    fn total_energy_matches_object_sum() {
        // N(v) summed per bin must equal Σ_i q_i ψ_i sampled per object
        // when the objects tile the region without clipping.
        let mut g = DensityGrid::new(Rect::new(0.0, 0.0, 64.0, 64.0), 16, 16, 1.0);
        let objs = vec![
            DensityObject::movable(Size::new(12.0, 8.0)),
            DensityObject::movable(Size::new(10.0, 10.0)),
            DensityObject::movable(Size::new(6.0, 14.0)),
        ];
        let pos = vec![
            Point::new(20.0, 20.0),
            Point::new(44.0, 40.0),
            Point::new(30.0, 50.0),
        ];
        g.deposit(&objs, &pos);
        g.solve();
        let per_object: f64 = objs.iter().zip(&pos).map(|(o, &p)| g.energy(o, p)).sum();
        let total = g.total_energy();
        assert!(
            (per_object - total).abs() < 1e-6 * total.abs().max(1.0),
            "per-object {per_object} vs total {total}"
        );
    }
}

#[cfg(test)]
mod parallel_solve_tests {
    use super::*;

    /// With a parallel exec policy the solve's transforms split their row
    /// and column passes over workers; the results must satisfy the same
    /// invariants the serial path does.
    #[test]
    fn parallel_path_matches_physics() {
        let region = Rect::new(0.0, 0.0, 256.0, 256.0);
        let mut g = DensityGrid::new(region, 128, 128, 1.0).with_exec(ExecConfig::with_threads(3));
        let objs = vec![
            DensityObject::movable(Size::new(24.0, 24.0)),
            DensityObject::movable(Size::new(24.0, 24.0)),
        ];
        // Symmetric about the center so the mutual repulsion dominates the
        // Neumann wall images.
        let pos = vec![Point::new(96.0, 128.0), Point::new(160.0, 128.0)];
        g.deposit(&objs, &pos);
        g.solve();
        // Zero-frequency removal survived the parallel path.
        let mean: f64 = g.potential_map().iter().sum::<f64>() / g.potential_map().len() as f64;
        let peak = g
            .potential_map()
            .iter()
            .map(|v| v.abs())
            .fold(0.0, f64::max);
        assert!(mean.abs() < 1e-9 * peak.max(1.0));
        // Forces still point apart.
        let ga = g.gradient(&objs[0], pos[0]);
        let gb = g.gradient(&objs[1], pos[1]);
        assert!(ga.x > 0.0 && gb.x < 0.0, "{ga} vs {gb}");
        // And match the energy finite difference (the full consistency
        // check, through the parallel path).
        let total_at = |p0: Point| {
            let mut gg = DensityGrid::new(region, 128, 128, 1.0);
            let pp = vec![p0, pos[1]];
            gg.deposit(&objs, &pp);
            gg.solve();
            gg.energy(&objs[0], pp[0]) + gg.energy(&objs[1], pp[1])
        };
        let h = 0.5;
        let fd = (total_at(Point::new(pos[0].x + h, pos[0].y))
            - total_at(Point::new(pos[0].x - h, pos[0].y)))
            / (2.0 * h);
        assert!(
            (fd - ga.x).abs() < 0.1 * ga.x.abs().max(1e-3),
            "fd {fd} vs analytic {}",
            ga.x
        );
    }

    /// The row/column-parallel transforms only repartition independent
    /// work, so the full solve must be *bit-identical* to the serial solve.
    #[test]
    fn threaded_solve_is_bitwise_serial() {
        let region = Rect::new(0.0, 0.0, 512.0, 512.0);
        let objs: Vec<DensityObject> = (0..64)
            .map(|i| DensityObject::movable(Size::new(8.0 + (i % 5) as f64, 10.0)))
            .collect();
        let pos: Vec<Point> = (0..64)
            .map(|i| Point::new(37.0 + 6.1 * (i % 13) as f64, 29.0 + 5.3 * (i / 8) as f64))
            .collect();
        let solve = |exec: ExecConfig| {
            let mut g = DensityGrid::new(region, 128, 128, 1.0).with_exec(exec);
            g.deposit(&objs, &pos);
            g.solve();
            g
        };
        let serial = solve(ExecConfig::serial());
        for threads in [2, 3, 8] {
            let par = solve(ExecConfig::with_threads(threads));
            let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(serial.potential_map()),
                bits(par.potential_map()),
                "{threads}"
            );
            assert_eq!(
                bits(serial.field_maps().0),
                bits(par.field_maps().0),
                "{threads}"
            );
            assert_eq!(
                bits(serial.field_maps().1),
                bits(par.field_maps().1),
                "{threads}"
            );
        }
    }
}

#[cfg(test)]
mod parallel_deposit_tests {
    use super::*;

    /// A few thousand overlapping cells, fillers and macros, many of them
    /// straddling the row bands of every split tried below.
    fn crowd(n: usize) -> (Vec<DensityObject>, Vec<Point>) {
        let objs = (0..n)
            .map(|i| match i % 3 {
                0 => DensityObject::movable(Size::new(3.0 + (i % 7) as f64, 4.0)),
                1 => DensityObject::filler(Size::new(2.0, 2.0)),
                _ => DensityObject::movable_macro(Size::new(9.0, 6.0), 0.8),
            })
            .collect();
        let pos = (0..n)
            .map(|i| {
                Point::new(
                    1.0 + 0.731 * (i % 173) as f64,
                    1.0 + 0.547 * (i % 229) as f64,
                )
            })
            .collect();
        (objs, pos)
    }

    fn grid128(exec: ExecConfig) -> DensityGrid {
        let mut g =
            DensityGrid::new(Rect::new(0.0, 0.0, 128.0, 128.0), 32, 32, 0.9).with_exec(exec);
        g.add_fixed(Rect::new(40.0, 40.0, 70.0, 60.0));
        g
    }

    fn bits(map: &[f64]) -> Vec<u64> {
        map.iter().map(|v| v.to_bits()).collect()
    }

    /// Each worker owns a band of bin rows and adds its objects in object
    /// order, so every bin sums the same terms in the same order as the
    /// serial sweep: charge, usage and potential are bitwise serial.
    #[test]
    fn parallel_deposit_is_bitwise_serial() {
        let (objs, pos) = crowd(3000);
        let mut serial = grid128(ExecConfig::serial());
        serial.deposit(&objs, &pos);
        serial.solve();
        for threads in [2, 4, 7, 32, 64] {
            let mut par = grid128(ExecConfig::with_threads(threads));
            par.deposit(&objs, &pos);
            assert_eq!(
                bits(serial.charge_map()),
                bits(par.charge_map()),
                "{threads}"
            );
            assert_eq!(
                bits(&serial.utilization_map()),
                bits(&par.utilization_map()),
                "{threads}"
            );
            assert_eq!(serial.overflow().to_bits(), par.overflow().to_bits());
            par.solve();
            assert_eq!(
                bits(serial.potential_map()),
                bits(par.potential_map()),
                "{threads}"
            );
        }
    }

    /// Any two thread counts produce bit-identical maps.
    #[test]
    fn parallel_deposit_is_thread_count_invariant() {
        let (objs, pos) = crowd(2600);
        let run = |threads: usize| {
            let mut g = grid128(ExecConfig::with_threads(threads));
            g.deposit(&objs, &pos);
            g
        };
        let two = run(2);
        for threads in [1, 3, 5, 8] {
            let other = run(threads);
            assert_eq!(
                bits(two.charge_map()),
                bits(other.charge_map()),
                "{threads}"
            );
            assert_eq!(two.overflow().to_bits(), other.overflow().to_bits());
        }
    }

    /// Repeated parallel deposits overwrite the maps rather than
    /// accumulating into them, and produce bit-identical maps.
    #[test]
    fn repeated_parallel_deposits_stay_bitwise_stable() {
        let (objs, pos) = crowd(3000);
        let mut g = grid128(ExecConfig::with_threads(4));
        g.deposit(&objs, &pos);
        let first = bits(g.charge_map());
        g.deposit(&objs, &pos);
        assert_eq!(first, bits(g.charge_map()));
    }

    /// `threads = 1` and `ExecConfig::serial()` are the same policy, and a
    /// small input gives the same bits at any thread count.
    #[test]
    fn serial_policy_and_small_inputs_are_bitwise_exact() {
        let (objs, pos) = crowd(3000);
        let mut baseline = grid128(ExecConfig::serial());
        baseline.deposit(&objs, &pos);
        let mut one = grid128(ExecConfig::with_threads(1));
        one.deposit(&objs, &pos);
        assert_eq!(bits(baseline.charge_map()), bits(one.charge_map()));
        let (small_objs, small_pos) = crowd(200);
        let mut small_serial = grid128(ExecConfig::serial());
        small_serial.deposit(&small_objs, &small_pos);
        let mut small_par = grid128(ExecConfig::with_threads(4));
        small_par.deposit(&small_objs, &small_pos);
        assert_eq!(
            bits(small_serial.charge_map()),
            bits(small_par.charge_map())
        );
    }
}
