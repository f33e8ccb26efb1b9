//! Global swap — the cross-row refinement move of the FastPlace-DP /
//! NTUplace3 detail placers: each cell is attracted to its *optimal region*
//! (the median of its nets' bounding boxes, where HPWL is locally minimal),
//! and exchanged with an equal-footprint cell already sitting there when the
//! exchange shortens the incident nets.
//!
//! Restricting candidates to identical footprints keeps every accepted move
//! trivially legal (positions swap, outlines coincide), which is the classic
//! engineering shortcut — standard-cell libraries have few distinct widths,
//! so same-size partners are plentiful.
//!
//! The same restriction makes the partner search cheap. A swap exchanges
//! the positions of two cells of one footprint bucket, so the set of
//! positions a bucket occupies (its *slots*) never changes during a call;
//! only which cell sits in which slot does. Each bucket's slots are binned
//! once per call on a uniform grid, and the nearest partners of a cell's
//! optimal point are found by searching rings of bins outward from it.

use eplace_geometry::Point;
use eplace_netlist::{CellKind, Design, NetId};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Partners tried per cell: the same-footprint cells nearest to its optimal
/// point.
const PARTNERS: usize = 6;

/// Slots per bin that [`SlotGrid::new`] aims for.
const SLOTS_PER_BIN: usize = 2;

/// Global swap over every movable standard cell, repeated `passes` times.
/// Each pass visits the cells in index order; a cell that sits at least its
/// own width (Manhattan) away from its optimal point tries the six
/// same-footprint cells nearest to that point, ranked by distance and then
/// by cell index, and takes the strictly best HPWL-improving exchange.
/// Returns the total HPWL improvement (≥ 0).
///
/// A swap only exchanges the positions of two cells of one `(width,
/// height)` bucket, so each bucket's slots are fixed for the whole call and
/// are binned once. A query scans rings of bins around the optimal point
/// and stops once six partners are held and no unscanned bin can hold a
/// nearer one: with about two slots per bin that is a few dozen slots,
/// independent of the bucket size.
///
/// # Examples
///
/// ```
/// use eplace_benchgen::BenchmarkConfig;
/// use eplace_legalize::{check_legal, global_swap, legalize};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut design = BenchmarkConfig::ispd05_like("gs", 4).scale(200).generate();
/// legalize(&mut design)?;
/// let gain = global_swap(&mut design, 1);
/// assert!(gain >= 0.0);
/// assert!(check_legal(&design).is_ok());
/// # Ok(())
/// # }
/// ```
pub fn global_swap(design: &mut Design, passes: usize) -> f64 {
    let before = design.hpwl();
    let movable: Vec<usize> = design
        .cells
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind == CellKind::StdCell && c.is_movable())
        .map(|(i, _)| i)
        .collect();
    if movable.len() < 2 {
        return 0.0;
    }
    let mut index = PartnerIndex::new(design, &movable);
    let (mut xs, mut ys, mut nets) = (Vec::new(), Vec::new(), Vec::new());

    for _ in 0..passes {
        for &ci in &movable {
            let Some(target) = optimal_point(design, ci, &mut xs, &mut ys) else {
                continue;
            };
            // Already close to optimal: nothing to gain.
            let here = design.cells[ci].pos;
            if here.manhattan_distance(target) < design.cells[ci].size.width {
                continue;
            }
            let partners = index.nearest(ci, target);
            let mut best: Option<(f64, usize)> = None;
            for cj in partners.cells() {
                let delta = swap_gain(design, ci, cj, &mut nets);
                if delta > 1e-12 && best.map(|(g, _)| delta > g).unwrap_or(true) {
                    best = Some((delta, cj));
                }
            }
            if let Some((_, cj)) = best {
                let pi = design.cells[ci].pos;
                let pj = design.cells[cj].pos;
                design.cells[ci].pos = pj;
                design.cells[cj].pos = pi;
                index.swap(ci, cj);
            }
        }
    }
    before - design.hpwl()
}

/// The slots of every footprint bucket, which cell occupies each slot, and
/// one [`SlotGrid`] per bucket. Slots of a bucket are contiguous and start
/// in cell-index order.
struct PartnerIndex {
    slot_pos: Vec<Point>,
    slot_cell: Vec<usize>,
    /// Slot and bucket of each cell; unused for cells outside every bucket.
    cell_slot: Vec<usize>,
    cell_bucket: Vec<usize>,
    grids: Vec<SlotGrid>,
}

impl PartnerIndex {
    fn new(design: &Design, movable: &[usize]) -> Self {
        // Buckets keyed by (width, height) in fixed point, to absorb float
        // noise.
        let mut bucket_of: HashMap<(i64, i64), usize> = HashMap::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        for &ci in movable {
            let s = design.cells[ci].size;
            let key = (
                (s.width * 64.0).round() as i64,
                (s.height * 64.0).round() as i64,
            );
            let b = *bucket_of.entry(key).or_insert_with(|| {
                members.push(Vec::new());
                members.len() - 1
            });
            members[b].push(ci);
        }
        let n = design.cells.len();
        let mut index = PartnerIndex {
            slot_pos: Vec::with_capacity(movable.len()),
            slot_cell: Vec::with_capacity(movable.len()),
            cell_slot: vec![usize::MAX; n],
            cell_bucket: vec![usize::MAX; n],
            grids: Vec::with_capacity(members.len()),
        };
        for (b, cells) in members.iter().enumerate() {
            let first = index.slot_pos.len();
            for &ci in cells {
                index.cell_slot[ci] = index.slot_pos.len();
                index.cell_bucket[ci] = b;
                index.slot_cell.push(ci);
                index.slot_pos.push(design.cells[ci].pos);
            }
            index
                .grids
                .push(SlotGrid::new(&index.slot_pos[first..], first));
        }
        index
    }

    /// Records that cells `a` and `b` exchanged slots.
    fn swap(&mut self, a: usize, b: usize) {
        let (sa, sb) = (self.cell_slot[a], self.cell_slot[b]);
        self.cell_slot.swap(a, b);
        self.slot_cell[sa] = b;
        self.slot_cell[sb] = a;
    }

    /// The up to [`PARTNERS`] cells of `ci`'s bucket, other than `ci`,
    /// nearest to `target`, ordered by Manhattan distance and then by cell
    /// index — the head of a stable sort of the index-ordered bucket.
    fn nearest(&self, ci: usize, target: Point) -> Nearest {
        let grid = &self.grids[self.cell_bucket[ci]];
        let (bx, by) = grid.bin_of(target);
        // Every slot is at least this far away: the target's distance to
        // the bucket's bounding box.
        let (lo, hi) = (grid.lo, grid.hi);
        let outside = (lo.x - target.x).max(0.0)
            + (target.x - hi.x).max(0.0)
            + (lo.y - target.y).max(0.0)
            + (target.y - hi.y).max(0.0);
        let mut best = Nearest::default();
        let scan = |best: &mut Nearest, ix: usize, iy: usize| {
            for &slot in grid.bin(ix, iy) {
                let cj = self.slot_cell[slot];
                if cj != ci {
                    best.offer(self.slot_pos[slot].manhattan_distance(target), cj);
                }
            }
        };
        for r in 0usize.. {
            // Ring r: the bins at Chebyshev distance r from (bx, by).
            let (x_lo, x_hi) = (bx.saturating_sub(r), (bx + r).min(grid.nx - 1));
            let (y_lo, y_hi) = (by.saturating_sub(r), (by + r).min(grid.ny - 1));
            for iy in y_lo..=y_hi {
                if iy + r == by || iy == by + r {
                    (x_lo..=x_hi).for_each(|ix| scan(&mut best, ix, iy));
                } else {
                    if bx >= r {
                        scan(&mut best, bx - r, iy);
                    }
                    if bx + r < grid.nx {
                        scan(&mut best, bx + r, iy);
                    }
                }
            }
            // An unscanned bin lies more than r bins away along an axis
            // that has bins left, so its slots are more than r bin sides
            // farther than the bounding box; the 0.001 absorbs binning
            // round-off.
            let more_x = bx > r || bx + r + 1 < grid.nx;
            let more_y = by > r || by + r + 1 < grid.ny;
            if !more_x && !more_y {
                break;
            }
            let reach = r as f64 - 0.001;
            let side = match (more_x, more_y) {
                (true, true) => grid.bin_w.min(grid.bin_h),
                (true, false) => grid.bin_w,
                _ => grid.bin_h,
            };
            if best.len == PARTNERS && best.items[PARTNERS - 1].0 < outside + reach * side {
                break;
            }
        }
        best
    }
}

/// A uniform bin grid over one bucket's slots, in CSR layout: the slots of
/// bin `iy * nx + ix` are `slots[start[b]..start[b + 1]]`.
struct SlotGrid {
    /// Lower-left and upper-right corners of the slots' bounding box.
    lo: Point,
    hi: Point,
    bin_w: f64,
    bin_h: f64,
    nx: usize,
    ny: usize,
    start: Vec<usize>,
    slots: Vec<usize>,
}

impl SlotGrid {
    /// Bins `pos` (the slots `first..first + pos.len()`) into about
    /// [`SLOTS_PER_BIN`] slots per bin over their bounding box, with
    /// near-square bins. An axis along which all slots coincide gets a
    /// single bin.
    fn new(pos: &[Point], first: usize) -> Self {
        let mut lo = Point::new(f64::INFINITY, f64::INFINITY);
        let mut hi = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in pos {
            lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        let (w, h) = (hi.x - lo.x, hi.y - lo.y);
        let bins = (pos.len() / SLOTS_PER_BIN).max(1);
        let side = if w > 0.0 && h > 0.0 {
            (w * h / bins as f64).sqrt()
        } else {
            w.max(h) / bins as f64
        };
        let along = |extent: f64| -> (usize, f64) {
            if extent > 0.0 && side > 0.0 {
                let n = ((extent / side).ceil() as usize).clamp(1, bins);
                (n, extent / n as f64)
            } else {
                (1, 1.0)
            }
        };
        let ((nx, bin_w), (ny, bin_h)) = (along(w), along(h));
        let mut grid = SlotGrid {
            lo,
            hi,
            bin_w,
            bin_h,
            nx,
            ny,
            start: vec![0; nx * ny + 1],
            slots: vec![0; pos.len()],
        };
        let bin_id = |p: Point| {
            let (ix, iy) = grid.bin_of(p);
            iy * nx + ix
        };
        let ids: Vec<usize> = pos.iter().map(|&p| bin_id(p)).collect();
        for &b in &ids {
            grid.start[b + 1] += 1;
        }
        for b in 0..nx * ny {
            grid.start[b + 1] += grid.start[b];
        }
        let mut fill = grid.start.clone();
        for (k, &b) in ids.iter().enumerate() {
            grid.slots[fill[b]] = first + k;
            fill[b] += 1;
        }
        grid
    }

    /// The bin holding `p`, clamped into the grid.
    fn bin_of(&self, p: Point) -> (usize, usize) {
        let ix = ((p.x - self.lo.x) / self.bin_w).floor() as usize;
        let iy = ((p.y - self.lo.y) / self.bin_h).floor() as usize;
        (ix.min(self.nx - 1), iy.min(self.ny - 1))
    }

    fn bin(&self, ix: usize, iy: usize) -> &[usize] {
        let b = iy * self.nx + ix;
        &self.slots[self.start[b]..self.start[b + 1]]
    }
}

/// The best [`PARTNERS`] candidates offered so far, kept sorted by
/// `(distance, cell)`.
#[derive(Default)]
struct Nearest {
    items: [(f64, usize); PARTNERS],
    len: usize,
}

impl Nearest {
    fn offer(&mut self, d: f64, cell: usize) {
        let before = |a: (f64, usize), b: (f64, usize)| {
            a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)) == Ordering::Less
        };
        if self.len == PARTNERS && !before((d, cell), self.items[PARTNERS - 1]) {
            return;
        }
        let mut k = self.len.min(PARTNERS - 1);
        self.len = (self.len + 1).min(PARTNERS);
        while k > 0 && before((d, cell), self.items[k - 1]) {
            self.items[k] = self.items[k - 1];
            k -= 1;
        }
        self.items[k] = (d, cell);
    }

    fn cells(&self) -> impl Iterator<Item = usize> + '_ {
        self.items[..self.len].iter().map(|&(_, c)| c)
    }
}

/// HPWL gain of swapping the positions of `a` and `b` (positive = better).
/// `nets` is scratch space for the union of their nets: `a`'s in order,
/// then `b`'s that `a` lacks.
fn swap_gain(design: &mut Design, a: usize, b: usize, nets: &mut Vec<NetId>) -> f64 {
    nets.clear();
    nets.extend_from_slice(&design.cell_nets[a]);
    for &n in &design.cell_nets[b] {
        if !nets.contains(&n) {
            nets.push(n);
        }
    }
    let cost = |design: &Design| -> f64 {
        nets.iter()
            .map(|&n| design.net_hpwl(&design.nets[n.index()]))
            .sum()
    };
    let before = cost(design);
    let pa = design.cells[a].pos;
    let pb = design.cells[b].pos;
    design.cells[a].pos = pb;
    design.cells[b].pos = pa;
    let after = cost(design);
    design.cells[a].pos = pa;
    design.cells[b].pos = pb;
    before - after
}

/// The optimal point of a cell: per axis, the median of its incident nets'
/// bounding-interval endpoints (computed without the cell's own pin).
/// `xs` and `ys` are scratch space.
fn optimal_point(
    design: &Design,
    ci: usize,
    xs: &mut Vec<f64>,
    ys: &mut Vec<f64>,
) -> Option<Point> {
    xs.clear();
    ys.clear();
    for &n in &design.cell_nets[ci] {
        let net = &design.nets[n.index()];
        let mut lo_x = f64::INFINITY;
        let mut hi_x = f64::NEG_INFINITY;
        let mut lo_y = f64::INFINITY;
        let mut hi_y = f64::NEG_INFINITY;
        for pin in &net.pins {
            if pin.cell.index() == ci {
                continue;
            }
            let p = design.pin_position(pin);
            lo_x = lo_x.min(p.x);
            hi_x = hi_x.max(p.x);
            lo_y = lo_y.min(p.y);
            hi_y = hi_y.max(p.y);
        }
        if lo_x.is_finite() {
            xs.push(lo_x);
            xs.push(hi_x);
            ys.push(lo_y);
            ys.push(hi_y);
        }
    }
    if xs.is_empty() {
        return None;
    }
    Some(Point::new(upper_median(xs), upper_median(ys)))
}

/// The element a `total_cmp` sort would put at `len / 2`. Values equal
/// under `total_cmp` have equal bits, so selection gives the sort's value.
fn upper_median(v: &mut [f64]) -> f64 {
    let mid = v.len() / 2;
    *v.select_nth_unstable_by(mid, f64::total_cmp).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_legal, legalize};
    use eplace_benchgen::BenchmarkConfig;
    use eplace_geometry::Rect;
    use eplace_netlist::DesignBuilder;
    use eplace_testkit::{check, Gen};

    /// The full-sort global swap this module replaced, kept verbatim as the
    /// oracle: every cell ranks all of its bucket's partners by distance.
    fn reference_global_swap(design: &mut Design, passes: usize) -> f64 {
        let before = design.hpwl();
        let movable: Vec<usize> = design
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind == CellKind::StdCell && c.is_movable())
            .map(|(i, _)| i)
            .collect();
        if movable.len() < 2 {
            return 0.0;
        }
        // Partner index: same (width, height) bucket, keyed in fixed-point to
        // absorb float noise.
        let key_of = |design: &Design, ci: usize| -> (i64, i64) {
            let s = design.cells[ci].size;
            (
                (s.width * 64.0).round() as i64,
                (s.height * 64.0).round() as i64,
            )
        };
        let mut buckets: std::collections::HashMap<(i64, i64), Vec<usize>> = Default::default();
        for &ci in &movable {
            buckets.entry(key_of(design, ci)).or_default().push(ci);
        }

        for _ in 0..passes {
            for &ci in &movable {
                let Some(target) = reference_optimal_point(design, ci) else {
                    continue;
                };
                // Already close to optimal: nothing to gain.
                let here = design.cells[ci].pos;
                if here.manhattan_distance(target) < design.cells[ci].size.width {
                    continue;
                }
                let Some(partners) = buckets.get(&key_of(design, ci)) else {
                    continue;
                };
                // Nearest few same-footprint partners to the optimal point.
                let mut ranked: Vec<(f64, usize)> = partners
                    .iter()
                    .filter(|&&cj| cj != ci)
                    .map(|&cj| (design.cells[cj].pos.manhattan_distance(target), cj))
                    .collect();
                ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut best: Option<(f64, usize)> = None;
                for &(_, cj) in ranked.iter().take(6) {
                    let delta = reference_swap_gain(design, ci, cj);
                    if delta > 1e-12 && best.map(|(g, _)| delta > g).unwrap_or(true) {
                        best = Some((delta, cj));
                    }
                }
                if let Some((_, cj)) = best {
                    let pi = design.cells[ci].pos;
                    let pj = design.cells[cj].pos;
                    design.cells[ci].pos = pj;
                    design.cells[cj].pos = pi;
                }
            }
        }
        before - design.hpwl()
    }

    fn reference_swap_gain(design: &mut Design, a: usize, b: usize) -> f64 {
        let mut nets: Vec<NetId> = design.cell_nets[a].clone();
        for &n in &design.cell_nets[b] {
            if !nets.contains(&n) {
                nets.push(n);
            }
        }
        let cost = |design: &Design| -> f64 {
            nets.iter()
                .map(|&n| design.net_hpwl(&design.nets[n.index()]))
                .sum()
        };
        let before = cost(design);
        let pa = design.cells[a].pos;
        let pb = design.cells[b].pos;
        design.cells[a].pos = pb;
        design.cells[b].pos = pa;
        let after = cost(design);
        design.cells[a].pos = pa;
        design.cells[b].pos = pb;
        before - after
    }

    fn reference_optimal_point(design: &Design, ci: usize) -> Option<Point> {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for &n in &design.cell_nets[ci] {
            let net = &design.nets[n.index()];
            let mut lo_x = f64::INFINITY;
            let mut hi_x = f64::NEG_INFINITY;
            let mut lo_y = f64::INFINITY;
            let mut hi_y = f64::NEG_INFINITY;
            for pin in &net.pins {
                if pin.cell.index() == ci {
                    continue;
                }
                let p = design.pin_position(pin);
                lo_x = lo_x.min(p.x);
                hi_x = hi_x.max(p.x);
                lo_y = lo_y.min(p.y);
                hi_y = hi_y.max(p.y);
            }
            if lo_x.is_finite() {
                xs.push(lo_x);
                xs.push(hi_x);
                ys.push(lo_y);
                ys.push(hi_y);
            }
        }
        if xs.is_empty() {
            return None;
        }
        xs.sort_by(f64::total_cmp);
        ys.sort_by(f64::total_cmp);
        Some(Point::new(xs[xs.len() / 2], ys[ys.len() / 2]))
    }

    /// Runs the indexed and the reference global swap on copies of
    /// `design` for 1–3 passes and asserts bitwise-equal positions and
    /// gains. Returns the reference gain of the longest run.
    fn assert_matches_reference(design: &Design) -> f64 {
        let mut gain = 0.0;
        for passes in 1..=3 {
            let (mut fast, mut slow) = (design.clone(), design.clone());
            let got = global_swap(&mut fast, passes);
            gain = reference_global_swap(&mut slow, passes);
            assert_eq!(got.to_bits(), gain.to_bits(), "gain after {passes} passes");
            for (i, (a, b)) in fast.cells.iter().zip(&slow.cells).enumerate() {
                assert!(
                    a.pos.x.to_bits() == b.pos.x.to_bits()
                        && a.pos.y.to_bits() == b.pos.y.to_bits(),
                    "cell {i} after {passes} passes: {:?} vs reference {:?}",
                    a.pos,
                    b.pos
                );
            }
        }
        gain
    }

    /// A design with one 12-high row per 12 units of `region` height, the
    /// given movable cells `(width, position)`, a pad at each region corner,
    /// and `nets` random 2–4-pin nets with pin offsets on a unit grid. Each
    /// pin lands on a pad with probability `pad_share`, else on a cell.
    fn random_netlist(
        g: &mut Gen,
        region: Rect,
        cells: &[(f64, Point)],
        nets: usize,
        pad_share: f64,
    ) -> Design {
        let mut b = DesignBuilder::new("gs_oracle", region);
        b.uniform_rows(12.0, 1.0);
        let mut ids = Vec::new();
        for (k, &(w, _)) in cells.iter().enumerate() {
            ids.push(b.add_cell(format!("c{k}"), w, 12.0, CellKind::StdCell));
        }
        let corners = [
            Point::new(region.xl, region.yl),
            Point::new(region.xh, region.yl),
            Point::new(region.xl, region.yh),
            Point::new(region.xh, region.yh),
        ];
        let pads: Vec<_> = (0..corners.len())
            .map(|k| b.add_cell(format!("p{k}"), 1.0, 1.0, CellKind::Terminal))
            .collect();
        for n in 0..nets {
            let degree = g.usize_range(2, 4);
            let pins = (0..degree)
                .map(|_| {
                    let off = Point::new(g.i32_range(-1, 1) as f64, g.i32_range(-2, 2) as f64);
                    let pool = if g.bool(pad_share) { &pads } else { &ids };
                    (*g.choose(pool), off)
                })
                .collect();
            b.add_net(format!("n{n}"), pins);
        }
        let mut d = b.build();
        for (id, &(_, p)) in ids.iter().zip(cells) {
            d.cells[id.index()].pos = p;
        }
        for (id, &p) in pads.iter().zip(&corners) {
            d.cells[id.index()].pos = p;
        }
        d
    }

    /// `count` distinct lattice points `(x0 + i·dx, 6 + 12·j)`, shuffled.
    fn lattice(
        g: &mut Gen,
        cols: usize,
        rows: usize,
        x0: f64,
        dx: f64,
        count: usize,
    ) -> Vec<Point> {
        let mut pts: Vec<Point> = (0..rows)
            .flat_map(|j| {
                (0..cols).map(move |i| Point::new(x0 + dx * i as f64, 6.0 + 12.0 * j as f64))
            })
            .collect();
        for k in (1..pts.len()).rev() {
            pts.swap(k, g.usize_range(0, k));
        }
        pts.truncate(count);
        pts
    }

    #[test]
    fn nearest_matches_a_full_sort_of_the_bucket() {
        // Random slots in boxes of any aspect, targets inside and outside
        // the box, and slot exchanges between queries.
        check("partner index nearest", 32, |g| {
            let (w, h) = (g.f64_range(0.0, 400.0), g.f64_range(0.0, 400.0));
            let n = g.usize_range(2, 600);
            // Half the cases put the slots on a few rows, as legal cells sit.
            let rows = if g.bool(0.5) { g.usize_range(1, 6) } else { 0 };
            let cells: Vec<_> = (0..n)
                .map(|_| {
                    let y = if rows > 0 {
                        h * g.usize_range(0, rows) as f64 / rows as f64
                    } else {
                        g.f64_range(0.0, h)
                    };
                    (4.0, Point::new(g.f64_range(0.0, w), y))
                })
                .collect();
            let region = Rect::new(-200.0, -200.0, w + 200.0, h + 200.0);
            let mut d = random_netlist(g, region, &cells, 0, 0.0);
            let movable: Vec<usize> = (0..n).collect();
            let mut index = PartnerIndex::new(&d, &movable);
            for _ in 0..200 {
                let ci = g.usize_range(0, n - 1);
                let t = Point::new(
                    g.f64_range(-150.0, w + 150.0),
                    g.f64_range(-150.0, h + 150.0),
                );
                let mut ranked: Vec<(f64, usize)> = (0..n)
                    .filter(|&cj| cj != ci)
                    .map(|cj| (d.cells[cj].pos.manhattan_distance(t), cj))
                    .collect();
                ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
                let want: Vec<usize> = ranked.iter().take(PARTNERS).map(|&(_, c)| c).collect();
                let got: Vec<usize> = index.nearest(ci, t).cells().collect();
                assert_eq!(got, want, "query of cell {ci} at {t:?}");
                let cj = g.usize_range(0, n - 1);
                if cj != ci {
                    let (pi, pj) = (d.cells[ci].pos, d.cells[cj].pos);
                    d.cells[ci].pos = pj;
                    d.cells[cj].pos = pi;
                    index.swap(ci, cj);
                }
            }
        });
    }

    #[test]
    fn matches_reference_on_legalized_peko_design() {
        let mut d = BenchmarkConfig::peko_like("gs", 5).scale(500).generate();
        legalize(&mut d).unwrap();
        assert!(
            assert_matches_reference(&d) > 0.0,
            "scenario must exercise swaps"
        );
    }

    #[test]
    fn matches_reference_on_legalized_mixed_footprint_design() {
        let mut d = BenchmarkConfig::ispd05_like("gs", 29).scale(400).generate();
        legalize(&mut d).unwrap();
        assert!(
            assert_matches_reference(&d) > 0.0,
            "scenario must exercise swaps"
        );
    }

    #[test]
    fn matches_reference_on_lattices_with_tied_distances() {
        // Integer lattice positions and pins: many partners share a
        // distance, so the order rests on the cell-index tie-break.
        check("global swap lattice ties", 24, |g| {
            let (cols, rows) = (g.usize_range(3, 14), g.usize_range(1, 8));
            let count = g.usize_range(2, cols * rows);
            let region = Rect::new(0.0, 0.0, 8.0 * cols as f64, 12.0 * rows as f64);
            let cells: Vec<_> = lattice(g, cols, rows, 4.0, 8.0, count)
                .into_iter()
                .map(|p| (4.0, p))
                .collect();
            let nets = g.usize_range(count / 2, 2 * count);
            assert_matches_reference(&random_netlist(g, region, &cells, nets, 0.1));
        });
    }

    #[test]
    fn matches_reference_with_buckets_of_fewer_than_seven_cells() {
        check("global swap small buckets", 24, |g| {
            let sizes: Vec<usize> = (0..g.usize_range(1, 5))
                .map(|_| g.usize_range(2, 7))
                .collect();
            let total: usize = sizes.iter().sum();
            let region = Rect::new(0.0, 0.0, 160.0, 96.0);
            let slots = lattice(g, 16, 8, 5.0, 10.0, total);
            let mut cells = Vec::new();
            for (b, &n) in sizes.iter().enumerate() {
                let w = 2.0 + b as f64;
                cells.extend(slots[cells.len()..cells.len() + n].iter().map(|&p| (w, p)));
            }
            assert_matches_reference(&random_netlist(g, region, &cells, 2 * total, 0.1));
        });
    }

    #[test]
    fn matches_reference_with_optimal_points_outside_the_bucket() {
        // The cells fill the middle third of a large region and half the
        // pins sit on the corner pads, so many optimal points fall outside
        // the bucket's bounding box.
        check("global swap far targets", 16, |g| {
            let region = Rect::new(0.0, 0.0, 600.0, 360.0);
            let count = g.usize_range(8, 120);
            let cells: Vec<_> = lattice(g, 20, 10, 205.0, 10.0, count)
                .into_iter()
                .map(|p| (4.0, Point::new(p.x, p.y + 120.0)))
                .collect();
            let nets = cells.len();
            assert_matches_reference(&random_netlist(g, region, &cells, nets, 0.5));
        });
    }

    #[test]
    fn matches_reference_when_a_bucket_shares_one_coordinate() {
        // Bucket of width 4 stacked in one column (one x); bucket of
        // width 6 along one row (one y).
        check("global swap degenerate buckets", 16, |g| {
            let rows = g.usize_range(2, 12);
            let region = Rect::new(0.0, 0.0, 240.0, 12.0 * rows as f64);
            let mut cells: Vec<_> = (0..rows)
                .map(|j| (4.0, Point::new(50.0, 6.0 + 12.0 * j as f64)))
                .collect();
            let row = 12.0 * g.usize_range(0, rows - 1) as f64 + 6.0;
            cells.extend(
                (0..g.usize_range(2, 20)).map(|i| (6.0, Point::new(80.0 + 8.0 * i as f64, row))),
            );
            let nets = 2 * cells.len();
            assert_matches_reference(&random_netlist(g, region, &cells, nets, 0.1));
        });
    }

    #[test]
    fn swap_untangles_crossed_cells_across_rows() {
        // a (row 0) wants to be near pad_top, e (row 1) near pad_bottom:
        // swapping them fixes both nets at once.
        let mut b = DesignBuilder::new("gs", Rect::new(0.0, 0.0, 100.0, 24.0));
        b.uniform_rows(12.0, 1.0);
        let a = b.add_cell("a", 4.0, 12.0, CellKind::StdCell);
        let e = b.add_cell("e", 4.0, 12.0, CellKind::StdCell);
        let pad_bottom = b.add_cell("pb", 2.0, 2.0, CellKind::Terminal);
        let pad_top = b.add_cell("pt", 2.0, 2.0, CellKind::Terminal);
        b.add_net("n1", vec![(a, Point::ORIGIN), (pad_top, Point::ORIGIN)]);
        b.add_net("n2", vec![(e, Point::ORIGIN), (pad_bottom, Point::ORIGIN)]);
        let mut d = b.build();
        d.cells[a.index()].pos = Point::new(50.0, 6.0); // bottom row
        d.cells[e.index()].pos = Point::new(50.0, 18.0); // top row
        d.cells[pad_bottom.index()].pos = Point::new(50.0, 1.0);
        d.cells[pad_top.index()].pos = Point::new(50.0, 23.0);
        let before = d.hpwl();
        let gain = global_swap(&mut d, 1);
        assert!(gain > 0.0, "no gain from obvious swap (hpwl {before})");
        assert!(d.cells[a.index()].pos.y > d.cells[e.index()].pos.y);
        assert!(check_legal(&d).is_ok());
    }

    #[test]
    fn never_worsens_and_preserves_legality() {
        let mut d = BenchmarkConfig::ispd05_like("gs", 23).scale(300).generate();
        legalize(&mut d).unwrap();
        let gain = global_swap(&mut d, 2);
        assert!(gain >= 0.0);
        assert!(check_legal(&d).is_ok(), "{:?}", check_legal(&d));
    }

    #[test]
    fn swaps_only_identical_footprints() {
        // Two cells of different widths, both badly placed: no swap allowed.
        let mut b = DesignBuilder::new("gs", Rect::new(0.0, 0.0, 100.0, 12.0));
        b.uniform_rows(12.0, 1.0);
        let a = b.add_cell("a", 4.0, 12.0, CellKind::StdCell);
        let e = b.add_cell("e", 8.0, 12.0, CellKind::StdCell);
        let p0 = b.add_cell("p0", 2.0, 2.0, CellKind::Terminal);
        let p1 = b.add_cell("p1", 2.0, 2.0, CellKind::Terminal);
        b.add_net("n1", vec![(a, Point::ORIGIN), (p1, Point::ORIGIN)]);
        b.add_net("n2", vec![(e, Point::ORIGIN), (p0, Point::ORIGIN)]);
        let mut d = b.build();
        d.cells[a.index()].pos = Point::new(10.0, 6.0);
        d.cells[e.index()].pos = Point::new(90.0, 6.0);
        d.cells[p0.index()].pos = Point::new(10.0, 1.0);
        d.cells[p1.index()].pos = Point::new(90.0, 1.0);
        let pos_before = (d.cells[a.index()].pos, d.cells[e.index()].pos);
        global_swap(&mut d, 1);
        assert_eq!(
            (d.cells[a.index()].pos, d.cells[e.index()].pos),
            pos_before,
            "different-width cells must not swap"
        );
    }

    #[test]
    fn single_cell_is_a_noop() {
        let mut b = DesignBuilder::new("gs", Rect::new(0.0, 0.0, 10.0, 12.0));
        b.uniform_rows(12.0, 1.0);
        b.add_cell("a", 2.0, 12.0, CellKind::StdCell);
        let mut d = b.build();
        assert_eq!(global_swap(&mut d, 3), 0.0);
    }
}
