use eplace_geometry::{Point, Rect, Size};
use std::fmt;

/// Index of a [`Cell`] within [`Design::cells`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u32);

impl CellId {
    /// The cell's index into [`Design::cells`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Index of a [`Net`] within [`Design::nets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl NetId {
    /// The net's index into [`Design::nets`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The topological category of a placement object.
///
/// ePlace's contribution is that the optimizer treats every movable kind
/// identically; the kind still matters for flow staging (which objects mLG
/// legalizes, which cDP legalizes) and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Row-height standard cell.
    StdCell,
    /// Multi-row block; movable in MMS-style designs, fixed otherwise.
    Macro,
    /// Fixed IO/terminal block (never moves).
    Terminal,
    /// Whitespace filler inserted by the global placer (paper §III); carries
    /// no pins.
    Filler,
}

/// A placement object: standard cell, macro, fixed terminal or filler.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Instance name (unique within the design).
    pub name: String,
    /// Physical outline dimensions.
    pub size: Size,
    /// Category of the object.
    pub kind: CellKind,
    /// `true` when the object must not move (terminals always; macros in
    /// std-cell-only suites; std cells during mLG).
    pub fixed: bool,
    /// Current center position.
    pub pos: Point,
}

impl Cell {
    /// The cell's area — its electric quantity `q_i` in the electrostatic
    /// analogy (Eq. 5).
    #[inline]
    pub fn area(&self) -> f64 {
        self.size.area()
    }

    /// The cell outline as a rectangle around the current position.
    #[inline]
    pub fn rect(&self) -> Rect {
        Rect::from_center(self.pos, self.size.width, self.size.height)
    }

    /// Whether this object participates in optimization.
    #[inline]
    pub fn is_movable(&self) -> bool {
        !self.fixed
    }
}

/// One connection point of a net: the owning cell plus the pin's offset from
/// the cell **center** (Bookshelf convention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pin {
    /// Owning cell.
    pub cell: CellId,
    /// Offset of the pin from the owner's center.
    pub offset: Point,
}

impl Pin {
    /// Creates a pin on `cell` at `offset` from the cell center.
    #[inline]
    pub fn new(cell: CellId, offset: Point) -> Self {
        Pin { cell, offset }
    }
}

/// A hyperedge of the netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// Connection points.
    pub pins: Vec<Pin>,
    /// Net weight from the `.wts` file (1.0 in all contest suites).
    pub weight: f64,
}

impl Net {
    /// Number of pins on the net (its *degree*).
    #[inline]
    pub fn degree(&self) -> usize {
        self.pins.len()
    }
}

/// One standard-cell row from the `.scl` file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Left edge of the row.
    pub x: f64,
    /// Bottom edge of the row.
    pub y: f64,
    /// Total row width (`num_sites × site_width`).
    pub width: f64,
    /// Row (and standard-cell) height.
    pub height: f64,
    /// Width of one placement site.
    pub site_width: f64,
}

impl Row {
    /// The row outline.
    #[inline]
    pub fn rect(&self) -> Rect {
        Rect::new(self.x, self.y, self.x + self.width, self.y + self.height)
    }
}

/// A complete placement instance: netlist + region + rows + density target.
#[derive(Debug, Clone)]
pub struct Design {
    /// Benchmark name.
    pub name: String,
    /// All placement objects. Fillers, when present, are appended after the
    /// original netlist objects.
    pub cells: Vec<Cell>,
    /// All nets.
    pub nets: Vec<Net>,
    /// The placement region `R`.
    pub region: Rect,
    /// Standard-cell rows decomposing the region.
    pub rows: Vec<Row>,
    /// Benchmark density upper bound `ρ_t` (1.0 when unconstrained).
    pub target_density: f64,
    /// For every cell, the nets incident to it; `cell_nets[i].len()` is the
    /// vertex degree `|E_i|` used by the preconditioner (Eq. 12).
    pub cell_nets: Vec<Vec<NetId>>,
}

impl Design {
    /// Rebuilds [`Design::cell_nets`] from the current net list. Call after
    /// bulk-editing nets.
    pub fn rebuild_cell_nets(&mut self) {
        let mut incident = vec![Vec::new(); self.cells.len()];
        for (ni, net) in self.nets.iter().enumerate() {
            for pin in &net.pins {
                let list: &mut Vec<NetId> = &mut incident[pin.cell.index()];
                if list.last() != Some(&NetId(ni as u32)) {
                    list.push(NetId(ni as u32));
                }
            }
        }
        self.cell_nets = incident;
    }

    /// Absolute position of a pin at the current placement.
    #[inline]
    pub fn pin_position(&self, pin: &Pin) -> Point {
        self.cells[pin.cell.index()].pos + pin.offset
    }

    /// Half-perimeter wirelength of one net at the current placement (Eq. 1),
    /// including the net weight.
    pub fn net_hpwl(&self, net: &Net) -> f64 {
        if net.pins.len() < 2 {
            return 0.0;
        }
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for pin in &net.pins {
            let p = self.pin_position(pin);
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        net.weight * ((max_x - min_x) + (max_y - min_y))
    }

    /// Total half-perimeter wirelength `W(v)` (Eq. 1).
    pub fn hpwl(&self) -> f64 {
        self.nets.iter().map(|n| self.net_hpwl(n)).sum()
    }

    /// HPWL the design would have if cell `i` sat at `positions[i]`, without
    /// mutating the current placement. Walks nets and pins in the same order
    /// as [`Design::hpwl`], so a call with the current positions reproduces
    /// [`Design::hpwl`] bit for bit — the property the known-optimum
    /// certificates of `eplace-benchgen` rely on.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is shorter than [`Design::cells`].
    pub fn hpwl_with_positions(&self, positions: &[Point]) -> f64 {
        assert!(
            positions.len() >= self.cells.len(),
            "positions slice shorter than cell list"
        );
        self.nets
            .iter()
            .map(|net| {
                if net.pins.len() < 2 {
                    return 0.0;
                }
                let mut min_x = f64::INFINITY;
                let mut max_x = f64::NEG_INFINITY;
                let mut min_y = f64::INFINITY;
                let mut max_y = f64::NEG_INFINITY;
                for pin in &net.pins {
                    let p = positions[pin.cell.index()] + pin.offset;
                    min_x = min_x.min(p.x);
                    max_x = max_x.max(p.x);
                    min_y = min_y.min(p.y);
                    max_y = max_y.max(p.y);
                }
                net.weight * ((max_x - min_x) + (max_y - min_y))
            })
            .sum()
    }

    /// Iterator over indexes of movable cells.
    pub fn movable_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_movable())
            .map(|(i, _)| i)
    }

    /// Total area of movable objects.
    pub fn movable_area(&self) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.is_movable())
            .map(|c| c.area())
            .sum()
    }

    /// Area of fixed objects clipped to the placement region.
    pub fn fixed_area_in_region(&self) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.fixed)
            .map(|c| c.rect().overlap_area(&self.region))
            .sum()
    }

    /// Free area available for movable objects: region minus clipped fixed
    /// blockages. The filler budget (paper §III) is
    /// `ρ_t · whitespace − movable_area`.
    pub fn whitespace_area(&self) -> f64 {
        (self.region.area() - self.fixed_area_in_region()).max(0.0)
    }

    /// Utilization of the design: movable area over whitespace.
    pub fn utilization(&self) -> f64 {
        let ws = self.whitespace_area();
        if ws <= 0.0 {
            return f64::INFINITY;
        }
        self.movable_area() / ws
    }

    /// Outlines of all movable macros at the current placement — the inputs
    /// to the macro-overlap metrics of mLG.
    pub fn movable_macro_rects(&self) -> Vec<Rect> {
        self.cells
            .iter()
            .filter(|c| c.kind == CellKind::Macro && c.is_movable())
            .map(|c| c.rect())
            .collect()
    }

    /// Number of objects whose kind matches `kind`.
    pub fn count_kind(&self, kind: CellKind) -> usize {
        self.cells.iter().filter(|c| c.kind == kind).count()
    }

    /// Removes all filler cells (they are always a suffix of `cells`) and
    /// returns how many were removed. Fillers carry no pins, so nets are
    /// unaffected.
    pub fn remove_fillers(&mut self) -> usize {
        let keep = self
            .cells
            .iter()
            .position(|c| c.kind == CellKind::Filler)
            .unwrap_or(self.cells.len());
        let removed = self.cells.len() - keep;
        self.cells.truncate(keep);
        self.cell_nets.truncate(keep);
        removed
    }

    /// Validates internal consistency (pin indices in range, fillers pinless,
    /// fillers form a suffix, sizes positive). Returns a description of the
    /// first violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        for (ni, net) in self.nets.iter().enumerate() {
            for pin in &net.pins {
                let ci = pin.cell.index();
                if ci >= self.cells.len() {
                    return Err(format!("net {ni} references missing cell {ci}"));
                }
                if self.cells[ci].kind == CellKind::Filler {
                    return Err(format!("net {ni} connects to filler cell {ci}"));
                }
            }
        }
        let mut seen_filler = false;
        for (i, cell) in self.cells.iter().enumerate() {
            if cell.size.width <= 0.0 || cell.size.height <= 0.0 {
                return Err(format!("cell {i} ({}) has non-positive size", cell.name));
            }
            match cell.kind {
                CellKind::Filler => seen_filler = true,
                _ if seen_filler => {
                    return Err(format!("non-filler cell {i} appears after fillers"));
                }
                _ => {}
            }
        }
        if self.cell_nets.len() != self.cells.len() {
            return Err("cell_nets length differs from cells".into());
        }
        if !self.region.is_valid() {
            return Err("placement region is degenerate".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DesignBuilder;

    fn two_cell_design() -> Design {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 100.0, 50.0));
        let a = b.add_cell("a", 2.0, 2.0, CellKind::StdCell);
        let c = b.add_cell("b", 2.0, 2.0, CellKind::StdCell);
        b.add_net("n", vec![(a, Point::ORIGIN), (c, Point::ORIGIN)]);
        let mut d = b.build();
        d.cells[0].pos = Point::new(10.0, 10.0);
        d.cells[1].pos = Point::new(20.0, 30.0);
        d
    }

    #[test]
    fn hpwl_two_pin() {
        let d = two_cell_design();
        assert_eq!(d.hpwl(), 30.0);
    }

    #[test]
    fn hpwl_with_positions_matches_hpwl_bitwise() {
        let d = two_cell_design();
        let pos: Vec<Point> = d.cells.iter().map(|c| c.pos).collect();
        assert_eq!(d.hpwl_with_positions(&pos).to_bits(), d.hpwl().to_bits());
        // And a shifted placement is evaluated without mutating the design.
        let moved: Vec<Point> = pos.iter().map(|p| Point::new(p.x + 5.0, p.y)).collect();
        assert_eq!(d.hpwl_with_positions(&moved), d.hpwl());
        assert_eq!(d.cells[0].pos, Point::new(10.0, 10.0));
    }

    #[test]
    fn hpwl_respects_pin_offsets() {
        let mut d = two_cell_design();
        d.nets[0].pins[0].offset = Point::new(1.0, 0.0);
        assert_eq!(d.hpwl(), 29.0);
    }

    #[test]
    fn hpwl_respects_weights() {
        let mut d = two_cell_design();
        d.nets[0].weight = 2.0;
        assert_eq!(d.hpwl(), 60.0);
    }

    #[test]
    fn single_pin_net_is_zero_length() {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = b.add_cell("a", 1.0, 1.0, CellKind::StdCell);
        b.add_net("n", vec![(a, Point::ORIGIN)]);
        assert_eq!(b.build().hpwl(), 0.0);
    }

    #[test]
    fn areas_and_utilization() {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 10.0, 10.0));
        b.add_cell("m", 4.0, 4.0, CellKind::StdCell);
        let t = b.add_cell("io", 2.0, 2.0, CellKind::Terminal);
        let mut d = b.build();
        d.cells[t.index()].pos = Point::new(9.0, 9.0); // half sticks out
        assert_eq!(d.movable_area(), 16.0);
        assert_eq!(d.fixed_area_in_region(), 4.0); // clipped to 2x2 quadrant... full 2x2 fits
        assert_eq!(d.whitespace_area(), 96.0);
        assert!((d.utilization() - 16.0 / 96.0).abs() < 1e-12);
    }

    #[test]
    fn fixed_area_clipping() {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 10.0, 10.0));
        let t = b.add_cell("io", 4.0, 4.0, CellKind::Terminal);
        let mut d = b.build();
        // Center on the region corner: only one quadrant (2x2) inside.
        d.cells[t.index()].pos = Point::new(10.0, 10.0);
        assert_eq!(d.fixed_area_in_region(), 4.0);
    }

    #[test]
    fn remove_fillers_truncates_suffix() {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 10.0, 10.0));
        b.add_cell("a", 1.0, 1.0, CellKind::StdCell);
        b.add_cell("f1", 1.0, 1.0, CellKind::Filler);
        b.add_cell("f2", 1.0, 1.0, CellKind::Filler);
        let mut d = b.build();
        assert_eq!(d.remove_fillers(), 2);
        assert_eq!(d.cells.len(), 1);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn validate_rejects_filler_with_pins() {
        let mut d = two_cell_design();
        d.cells[1].kind = CellKind::Filler;
        assert!(d.validate().is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_pin() {
        let mut d = two_cell_design();
        d.nets[0].pins[0].cell = CellId(99);
        assert!(d.validate().is_err());
    }

    #[test]
    fn cell_rect_is_centered() {
        let d = two_cell_design();
        let r = d.cells[0].rect();
        assert_eq!(r.center(), d.cells[0].pos);
        assert_eq!(r.area(), 4.0);
    }

    #[test]
    fn degree_bookkeeping() {
        let d = two_cell_design();
        assert_eq!(d.cell_nets[0].len(), 1);
        assert_eq!(d.cell_nets[1].len(), 1);
        assert_eq!(d.nets[0].degree(), 2);
    }
}
