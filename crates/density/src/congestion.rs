//! RUDY congestion estimation — the "extension towards … routability"
//! named as future work in the paper's §VIII.
//!
//! RUDY (Rectangular Uniform wire DensitY, Spindler & Johannes, DATE'07) is
//! the standard placement-time routability proxy: each net spreads a wire
//! volume of `HPWL · wire_width` uniformly over its bounding box, and the
//! per-bin sum estimates routing demand. It needs no router, works on
//! global (overlapping) placements, and is what RePlAce's routability mode
//! starts from.

use eplace_geometry::{overlap_1d, Rect};
use eplace_netlist::Design;

/// A RUDY congestion map over an `nx × ny` grid.
///
/// # Examples
///
/// ```
/// use eplace_benchgen::BenchmarkConfig;
/// use eplace_density::CongestionMap;
///
/// let design = BenchmarkConfig::ispd05_like("r", 3).scale(200).generate();
/// let map = CongestionMap::rudy(&design, 16, 16, 1.0);
/// assert!(map.peak() >= map.mean());
/// ```
#[derive(Debug, Clone)]
pub struct CongestionMap {
    nx: usize,
    ny: usize,
    region: Rect,
    /// Estimated routing demand per bin (wire area / bin area).
    demand: Vec<f64>,
}

impl CongestionMap {
    /// Builds the RUDY map of `design` at the current placement.
    /// `wire_width` is the demand each unit of wirelength contributes
    /// (1.0 ≈ one routing track).
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or the region degenerate.
    pub fn rudy(design: &Design, nx: usize, ny: usize, wire_width: f64) -> Self {
        Self::rudy_impl(design, nx, ny, wire_width, |pin| design.pin_position(pin))
    }

    /// Builds the RUDY map with the positions of `movable` cells overridden
    /// by `positions` (parallel slices) — the form the global-placement loop
    /// journals, where the optimizer's in-flight solution has not yet been
    /// committed to the design.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, an index is out of bounds, or
    /// the grid/region is degenerate (as [`CongestionMap::rudy`]).
    pub fn rudy_with_positions(
        design: &Design,
        nx: usize,
        ny: usize,
        wire_width: f64,
        movable: &[usize],
        positions: &[eplace_geometry::Point],
    ) -> Self {
        assert_eq!(
            movable.len(),
            positions.len(),
            "movable/positions length mismatch"
        );
        let mut pos: Vec<eplace_geometry::Point> = design.cells.iter().map(|c| c.pos).collect();
        for (&i, &p) in movable.iter().zip(positions) {
            pos[i] = p;
        }
        Self::rudy_impl(design, nx, ny, wire_width, |pin| {
            pos[pin.cell.index()] + pin.offset
        })
    }

    fn rudy_impl(
        design: &Design,
        nx: usize,
        ny: usize,
        wire_width: f64,
        pin_pos: impl Fn(&eplace_netlist::Pin) -> eplace_geometry::Point,
    ) -> Self {
        assert!(nx > 0 && ny > 0, "empty congestion grid");
        assert!(design.region.is_valid(), "degenerate region");
        let region = design.region;
        let bin_w = region.width() / nx as f64;
        let bin_h = region.height() / ny as f64;
        let bin_area = bin_w * bin_h;
        let mut demand = vec![0.0; nx * ny];
        for net in &design.nets {
            if net.pins.len() < 2 {
                continue;
            }
            // Net bounding box over pin positions.
            let mut bb = Rect::new(
                f64::INFINITY,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NEG_INFINITY,
            );
            for pin in &net.pins {
                let p = pin_pos(pin);
                bb.xl = bb.xl.min(p.x);
                bb.xh = bb.xh.max(p.x);
                bb.yl = bb.yl.min(p.y);
                bb.yh = bb.yh.max(p.y);
            }
            let w = bb.width();
            let h = bb.height();
            let hpwl = w + h;
            if hpwl <= 0.0 {
                continue; // coincident pins route for free
            }
            // RUDY: wire volume spread uniformly over the (possibly
            // degenerate) bounding box; degenerate boxes get one bin of
            // extent so the demand lands somewhere.
            let eff = Rect::new(
                bb.xl,
                bb.yl,
                bb.xh.max(bb.xl + bin_w.min(1.0)),
                bb.yh.max(bb.yl + bin_h.min(1.0)),
            );
            let volume = net.weight * wire_width * hpwl;
            let density = volume / eff.area();
            let clipped = match eff.intersection(&region) {
                Some(r) => r,
                None => continue,
            };
            let ix0 = ((clipped.xl - region.xl) / bin_w).floor().max(0.0) as usize;
            let ix1 = (((clipped.xh - region.xl) / bin_w).ceil() as usize).min(nx);
            let iy0 = ((clipped.yl - region.yl) / bin_h).floor().max(0.0) as usize;
            let iy1 = (((clipped.yh - region.yl) / bin_h).ceil() as usize).min(ny);
            for iy in iy0..iy1 {
                let byl = region.yl + iy as f64 * bin_h;
                for ix in ix0..ix1 {
                    let bxl = region.xl + ix as f64 * bin_w;
                    let o = overlap_1d(clipped.xl, clipped.xh, bxl, bxl + bin_w)
                        * overlap_1d(clipped.yl, clipped.yh, byl, byl + bin_h);
                    demand[iy * nx + ix] += density * o / bin_area;
                }
            }
        }
        CongestionMap {
            nx,
            ny,
            region,
            demand,
        }
    }

    /// Grid width in bins.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in bins.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Per-bin routing demand (row-major).
    pub fn demand_map(&self) -> &[f64] {
        &self.demand
    }

    /// Peak bin demand.
    pub fn peak(&self) -> f64 {
        self.demand.iter().cloned().fold(0.0, f64::max)
    }

    /// Mean bin demand.
    pub fn mean(&self) -> f64 {
        self.demand.iter().sum::<f64>() / self.demand.len() as f64
    }

    /// The standard congestion figure of merit: average of the top 10 % of
    /// bins divided by the mean ("ACE"-style hotspot ratio). 1.0 = perfectly
    /// even demand.
    pub fn hotspot_ratio(&self) -> f64 {
        let mean = self.mean();
        if mean <= 0.0 {
            return 1.0;
        }
        let mut sorted = self.demand.clone();
        sorted.sort_by(f64::total_cmp);
        let k = (sorted.len() / 10).max(1);
        let top: f64 = sorted[sorted.len() - k..].iter().sum::<f64>() / k as f64;
        top / mean
    }

    /// Demand at the bin containing `(x, y)` (clamped into the grid).
    pub fn at(&self, x: f64, y: f64) -> f64 {
        let bin_w = self.region.width() / self.nx as f64;
        let bin_h = self.region.height() / self.ny as f64;
        let ix = (((x - self.region.xl) / bin_w) as usize).min(self.nx - 1);
        let iy = (((y - self.region.yl) / bin_h) as usize).min(self.ny - 1);
        self.demand[iy * self.nx + ix]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_geometry::Point;
    use eplace_netlist::{CellKind, DesignBuilder};

    fn two_pin_design(a: Point, b: Point) -> Design {
        let mut bld = DesignBuilder::new("c", Rect::new(0.0, 0.0, 64.0, 64.0));
        let ca = bld.add_cell("a", 1.0, 1.0, CellKind::StdCell);
        let cb = bld.add_cell("b", 1.0, 1.0, CellKind::StdCell);
        bld.add_net("n", vec![(ca, Point::ORIGIN), (cb, Point::ORIGIN)]);
        let mut d = bld.build();
        d.cells[ca.index()].pos = a;
        d.cells[cb.index()].pos = b;
        d
    }

    #[test]
    fn total_demand_equals_wire_volume() {
        let d = two_pin_design(Point::new(8.0, 8.0), Point::new(40.0, 24.0));
        let map = CongestionMap::rudy(&d, 16, 16, 1.0);
        let bin_area = (64.0 / 16.0) * (64.0 / 16.0);
        let total: f64 = map.demand_map().iter().sum::<f64>() * bin_area;
        let hpwl = 32.0 + 16.0;
        assert!((total - hpwl).abs() < 1e-9, "total {total} vs hpwl {hpwl}");
    }

    #[test]
    fn demand_confined_to_bounding_box() {
        let d = two_pin_design(Point::new(8.0, 8.0), Point::new(24.0, 24.0));
        let map = CongestionMap::rudy(&d, 16, 16, 1.0);
        // Far corner bin sees nothing.
        assert_eq!(map.at(60.0, 60.0), 0.0);
        // Inside the box sees demand.
        assert!(map.at(16.0, 16.0) > 0.0);
    }

    #[test]
    fn longer_nets_raise_demand_density() {
        // Same box width, doubled height → HPWL grows, box area grows:
        // aggregate volume grows linearly with HPWL.
        let short = CongestionMap::rudy(
            &two_pin_design(Point::new(8.0, 8.0), Point::new(24.0, 8.1)),
            16,
            16,
            1.0,
        );
        let long = CongestionMap::rudy(
            &two_pin_design(Point::new(8.0, 8.0), Point::new(56.0, 8.1)),
            16,
            16,
            1.0,
        );
        let bin_area = 16.0;
        let vol = |m: &CongestionMap| m.demand_map().iter().sum::<f64>() * bin_area;
        assert!(vol(&long) > 2.5 * vol(&short));
    }

    #[test]
    fn degenerate_vertical_net_is_handled() {
        let d = two_pin_design(Point::new(32.0, 8.0), Point::new(32.0, 56.0));
        let map = CongestionMap::rudy(&d, 16, 16, 1.0);
        assert!(map.peak() > 0.0);
        assert!(map.peak().is_finite());
    }

    #[test]
    fn hotspot_ratio_orders_layouts() {
        // A clustered layout (all nets crossing one spot) must be more
        // congested than a spread one.
        let mut bld = DesignBuilder::new("h", Rect::new(0.0, 0.0, 64.0, 64.0));
        let ids: Vec<_> = (0..20)
            .map(|i| bld.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::StdCell))
            .collect();
        for k in 0..10 {
            bld.add_net(
                format!("n{k}"),
                vec![(ids[2 * k], Point::ORIGIN), (ids[2 * k + 1], Point::ORIGIN)],
            );
        }
        let mut clustered = bld.build();
        let mut spread = clustered.clone();
        for (k, id) in ids.iter().enumerate() {
            // Clustered: all nets pass through the center.
            clustered.cells[id.index()].pos = if k % 2 == 0 {
                Point::new(30.0, 32.0)
            } else {
                Point::new(34.0, 32.0)
            };
            // Spread: nets in different rows.
            spread.cells[id.index()].pos = Point::new(
                if k % 2 == 0 { 8.0 } else { 56.0 },
                3.0 + 6.0 * (k / 2) as f64,
            );
        }
        let c = CongestionMap::rudy(&clustered, 16, 16, 1.0);
        let s = CongestionMap::rudy(&spread, 16, 16, 1.0);
        assert!(
            c.hotspot_ratio() > s.hotspot_ratio(),
            "clustered {} vs spread {}",
            c.hotspot_ratio(),
            s.hotspot_ratio()
        );
    }

    #[test]
    fn weighted_nets_scale_demand() {
        let mut d = two_pin_design(Point::new(8.0, 8.0), Point::new(40.0, 24.0));
        let base = CongestionMap::rudy(&d, 16, 16, 1.0);
        d.nets[0].weight = 3.0;
        let heavy = CongestionMap::rudy(&d, 16, 16, 1.0);
        assert!((heavy.peak() - 3.0 * base.peak()).abs() < 1e-9);
    }
}
