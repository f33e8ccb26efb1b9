//! The eDensity electrostatic density system (paper §IV).
//!
//! Every placement object is modeled as a positive charge whose electric
//! quantity equals its area. The density cost `N(v)` is the total potential
//! energy of the system; minimizing it drives the layout toward the
//! electrostatic equilibrium, i.e. an even density distribution.
//!
//! Potential and field come from a Poisson equation with Neumann boundary
//! conditions and zero-frequency removal (paper Eq. 6), solved spectrally in
//! `O(n log n)` on an `nx × ny` bin grid:
//!
//! 1. deposit charge (cell area, with ePlace's small-cell inflation) into
//!    bins — [`DensityGrid::deposit`];
//! 2. 2-D DCT of the density → cosine coefficients `a_{uv}`;
//! 3. scale by the inverse Laplacian eigenvalues `w_u² + w_v²` (the `(0,0)`
//!    term is dropped — that is the zero-frequency removal);
//! 4. inverse cosine transform → potential ψ; mixed sine/cosine inverse
//!    transforms → field ∂ψ/∂x, ∂ψ/∂y — [`DensityGrid::solve`];
//! 5. per-object energy `q_i·ψ_i` and gradient `2·q_i·∂ψ/∂x` (paper Eq. 7–8)
//!    by sampling the maps over each object's footprint —
//!    [`DensityGrid::gradient`] / [`DensityGrid::energy`].
//!
//! The module also provides the **bell-shape** density model
//! ([`BellShapeDensity`]) used by the APlace-family baseline placer, so the
//! paper's nonlinear-placer comparison can run against the historically
//! accurate competitor formulation.
//!
//! # Examples
//!
//! ```
//! use eplace_density::{DensityGrid, DensityObject};
//! use eplace_geometry::{Point, Rect, Size};
//!
//! let region = Rect::new(0.0, 0.0, 64.0, 64.0);
//! let mut grid = DensityGrid::new(region, 8, 8, 1.0);
//! let objects = vec![DensityObject::movable(Size::new(8.0, 8.0)); 4];
//! // All four objects piled on one spot: the field pushes them apart.
//! let pos = vec![Point::new(16.0, 16.0); 4];
//! grid.deposit(&objects, &pos);
//! grid.solve();
//! let g = grid.gradient(&objects[0], pos[0]);
//! assert!(g.x < 0.0 && g.y < 0.0); // descent moves away from the pile
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod bellshape;
mod congestion;
mod grid;

pub use bellshape::BellShapeDensity;
pub use congestion::CongestionMap;
pub use grid::{DensityGrid, DensityObject};

/// Fraction by which a cell dimension must exceed the bin dimension before
/// it is deposited without inflation: dimensions below `√2 × bin` are
/// inflated to `√2 × bin` with proportionally reduced density, preserving
/// total charge (ePlace's local density scaling).
pub const SMOOTH_FACTOR: f64 = std::f64::consts::SQRT_2;

/// Chooses the density grid dimension for `movable_count` objects:
/// the smallest power of two ≥ √count, clamped into `[min, max]`.
///
/// The paper (§II) decomposes the region into `n × n` bins with `n` matched
/// to the object count so the average bin holds O(1) cells.
///
/// # Examples
///
/// ```
/// assert_eq!(eplace_density::grid_dimension(10_000, 16, 1024), 128);
/// assert_eq!(eplace_density::grid_dimension(10, 16, 1024), 16);
/// ```
pub fn grid_dimension(movable_count: usize, min: usize, max: usize) -> usize {
    let target = (movable_count as f64).sqrt().ceil() as usize;
    eplace_spectral::next_power_of_two(target).clamp(min, max)
}

/// Density overflow τ of `design`'s current layout: every movable cell
/// deposited (fillers are assumed removed) against the fixed cells on a
/// [`grid_dimension`]`(movables, grid_min, grid_max)` grid. 0 when nothing
/// moves. The one overflow score of a finished placement, for ePlace and
/// every baseline alike.
pub fn layout_overflow(design: &eplace_netlist::Design, grid_min: usize, grid_max: usize) -> f64 {
    let movables: Vec<usize> = design.movable_indices().collect();
    if movables.is_empty() {
        return 0.0;
    }
    let dim = grid_dimension(movables.len(), grid_min, grid_max);
    let mut grid = DensityGrid::new(design.region, dim, dim, design.target_density);
    for c in design.cells.iter().filter(|c| c.fixed) {
        grid.add_fixed(c.rect());
    }
    let objects: Vec<DensityObject> = movables
        .iter()
        .map(|&i| DensityObject::movable(design.cells[i].size))
        .collect();
    let pos: Vec<_> = movables.iter().map(|&i| design.cells[i].pos).collect();
    grid.deposit(&objects, &pos);
    grid.overflow()
}

/// Scaled HPWL `hpwl·(1 + 0.01·τ_avg)` of the ISPD-2006 protocol, with
/// `τ_avg` the percentage density overflow (`overflow` is a fraction).
pub fn scaled_hpwl(hpwl: f64, overflow: f64) -> f64 {
    hpwl * (1.0 + 0.01 * (overflow * 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_dimension_scales_with_sqrt() {
        assert_eq!(grid_dimension(1, 2, 1024), 2);
        assert_eq!(grid_dimension(100, 2, 1024), 16);
        assert_eq!(grid_dimension(1_000_000, 2, 1024), 1024);
        assert_eq!(grid_dimension(100_000_000, 2, 1024), 1024); // clamped
    }

    #[test]
    fn grid_dimension_respects_min() {
        assert_eq!(grid_dimension(1, 64, 1024), 64);
    }
}

#[cfg(test)]
mod proptests;
