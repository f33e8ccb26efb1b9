use crate::{Complex, Pow2};
use eplace_errors::EplaceError;
use std::f64::consts::PI;

/// One pass of the mixed-radix Stockham FFT, with its per-pass twiddles.
#[derive(Debug, Clone)]
enum Stage {
    /// Radix-4 decimation-in-frequency pass over sub-length `len`:
    /// `tw[p] = (w¹ᵖ, w²ᵖ, w³ᵖ)` with `w = e^{∓2πi/len}` for `p < len/4`.
    Radix4 { len: usize, tw: Vec<[Complex; 3]> },
    /// The final radix-2 pass (twiddle-free butterfly), present when
    /// `log₂(size)` is odd.
    Radix2,
}

/// A reusable plan for complex FFTs of one fixed power-of-two size.
///
/// The kernel is a self-sorting (Stockham autosort) mixed-radix FFT:
/// radix-4 decimation-in-frequency passes, with one trailing radix-2 pass
/// when `log₂(size)` is odd. Each pass writes its outputs already sorted for
/// the next, so no bit-reversal permutation runs; the price is ping-ponging
/// between two buffers. The plan precomputes every pass's twiddles for both
/// directions once.
///
/// The transform convention is the unnormalized DFT
/// `X[k] = Σ_n x[n]·e^{-2πi·k·n/N}`; the inverse divides by `N`, so
/// `inverse(forward(x)) == x`.
///
/// [`FftPlan::forward`] and [`FftPlan::inverse`] are in-place conveniences
/// that allocate the second buffer per call. The cosine/sine transforms of
/// [`crate::DctPlan`] drive the passes directly out of their own
/// [`crate::DctScratch`], with the real-signal fold fused into the first
/// pass and the unfold fused into the last.
///
/// # Examples
///
/// ```
/// use eplace_spectral::{Complex, FftPlan};
///
/// let plan = FftPlan::new(4).unwrap();
/// let mut data = vec![Complex::ONE; 4];
/// plan.forward(&mut data);
/// assert_eq!(data[0], Complex::new(4.0, 0.0)); // DC bin
/// assert!(data[1].norm() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    size: usize,
    fwd: Vec<Stage>,
    inv: Vec<Stage>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `size`.
    ///
    /// # Errors
    ///
    /// [`EplaceError::Validation`] when `size` is not a power of two. Callers
    /// with a statically valid size use [`FftPlan::for_pow2`] instead.
    pub fn new(size: usize) -> Result<Self, EplaceError> {
        Pow2::new(size).map(Self::for_pow2)
    }

    /// Builds a plan from a checked-at-construction size — infallible.
    pub fn for_pow2(size: Pow2) -> Self {
        let size = size.get();
        let build = |invert: bool| {
            let sign = if invert { 2.0 } else { -2.0 };
            let mut stages = Vec::new();
            let mut n = size;
            while n >= 4 {
                let tw: Vec<[Complex; 3]> = (0..n / 4)
                    .map(|p| {
                        let theta = sign * PI * p as f64 / n as f64;
                        [
                            Complex::from_polar_unit(theta),
                            Complex::from_polar_unit(2.0 * theta),
                            Complex::from_polar_unit(3.0 * theta),
                        ]
                    })
                    .collect();
                stages.push(Stage::Radix4 { len: n, tw });
                n /= 4;
            }
            if n == 2 {
                stages.push(Stage::Radix2);
            }
            stages
        };
        FftPlan {
            size,
            fwd: build(false),
            inv: build(true),
        }
    }

    /// The transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.size
    }

    /// Always `false`; present for the `len`/`is_empty` convention (the
    /// length-1 plan is degenerate but legal).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward DFT.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan size.
    pub fn forward(&self, data: &mut [Complex]) {
        self.run_in_place(data, false);
    }

    /// In-place inverse DFT (including the `1/N` normalization).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan size.
    pub fn inverse(&self, data: &mut [Complex]) {
        self.run_in_place(data, true);
        let scale = 1.0 / self.size as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
    }

    fn run_in_place(&self, data: &mut [Complex], invert: bool) {
        self.check_len(data.len());
        let mut work = vec![Complex::ZERO; self.size];
        if self.run(data, &mut work, invert) {
            data.copy_from_slice(&work);
        }
    }

    #[inline]
    fn check_len(&self, len: usize) {
        assert_eq!(
            len, self.size,
            "FFT buffer length {} differs from plan size {}",
            len, self.size
        );
    }

    /// Runs the forward (`invert = false`, `X[k] = Σ x[n]·e^{-2πikn/N}`) or
    /// unscaled inverse (`invert = true`, no `1/N`) transform of the data in
    /// `a`, ping-ponging through `b`. Returns `true` when the result ends in
    /// `b`, `false` when it ends in `a`.
    ///
    /// # Panics
    ///
    /// Panics if either buffer length differs from the plan size.
    pub(crate) fn run(&self, a: &mut [Complex], b: &mut [Complex], invert: bool) -> bool {
        self.check_len(a.len());
        self.check_len(b.len());
        let stages = if invert { &self.inv } else { &self.fwd };
        Self::run_stages(stages, 1, a, b, invert, false).0
    }

    /// The ping-pong stage loop shared by every entry point: runs `stages`
    /// starting at `stride` with the current data in `a` (`in_b = false`) or
    /// `b`. Returns the final `(in_b, stride)`.
    fn run_stages(
        stages: &[Stage],
        mut stride: usize,
        a: &mut [Complex],
        b: &mut [Complex],
        invert: bool,
        mut in_b: bool,
    ) -> (bool, usize) {
        for stage in stages {
            let (src, dst) = if in_b { (&*b, &mut *a) } else { (&*a, &mut *b) };
            match stage {
                Stage::Radix4 { len, tw } => {
                    Self::radix4_pass(*len, stride, tw, src, dst, invert);
                    stride *= 4;
                }
                Stage::Radix2 => {
                    Self::radix2_pass(stride, src, dst);
                    stride *= 2;
                }
            }
            in_b = !in_b;
        }
        (in_b, stride)
    }

    /// Forward transform with the Makhoul fold fused into the first radix-4
    /// pass: instead of gathering `data` into a complex buffer and re-reading
    /// it, the first butterfly loads its four inputs straight from the real
    /// strided line (`L(j) = data[offset + j·stride]`, fold pair `m` packing
    /// `L` at the even slots `(4m, 4m+2)` for `m < H/2` and the odd slots
    /// `(2N−1−4m, 2N−3−4m)` for `m ≥ H/2`). One full memory round trip
    /// cheaper than `run`; bit-identical to gather-then-`run` because the
    /// butterfly arithmetic is unchanged.
    ///
    /// Requires `size ≥ 4` (smaller sizes have no radix-4 stage — the caller
    /// special-cases them).
    ///
    /// # Panics
    ///
    /// Panics if either buffer length differs from the plan size.
    pub(crate) fn run_folded_fwd(
        &self,
        data: &[f64],
        offset: usize,
        stride: usize,
        a: &mut [Complex],
        b: &mut [Complex],
    ) -> bool {
        self.check_len(a.len());
        self.check_len(b.len());
        let (first, rest) = match self.fwd.split_first() {
            Some((Stage::Radix4 { tw, .. }, rest)) => (tw, rest),
            _ => unreachable!("run_folded_fwd requires size >= 4"),
        };
        Self::radix4_first_folded(data, offset, stride, first, a);
        Self::run_stages(rest, 4, a, b, false, false).0
    }

    /// The fused first pass of [`FftPlan::run_folded_fwd`]: a radix-4
    /// decimation-in-frequency butterfly whose inputs come from the folded
    /// real line. With `s = 1` the four sources for butterfly `p` are fold
    /// pairs `p`, `p + H/4`, `p + H/2`, `p + 3H/4`; resolving the Makhoul
    /// map turns those into six incremental index streams over `data`.
    fn radix4_first_folded(
        data: &[f64],
        offset: usize,
        stride: usize,
        tw: &[[Complex; 3]],
        y: &mut [Complex],
    ) {
        let h = y.len();
        let n = 2 * h;
        let step = 4 * stride;
        let mut ia = offset;
        let mut ib = offset + h * stride;
        let mut ic = offset + (n - 1) * stride;
        let mut id = offset + (h - 1) * stride;
        for (w, yp) in tw.iter().zip(y.chunks_exact_mut(4)) {
            let [w1, w2, w3] = *w;
            let a = Complex::new(data[ia], data[ia + 2 * stride]);
            let b = Complex::new(data[ib], data[ib + 2 * stride]);
            let c = Complex::new(data[ic], data[ic - 2 * stride]);
            let d = Complex::new(data[id], data[id - 2 * stride]);
            let apc = a + c;
            let amc = a - c;
            let bpd = b + d;
            let jbmd = (b - d).mul_i();
            let t1 = amc - jbmd;
            let t3 = amc + jbmd;
            yp[0] = apc + bpd;
            yp[1] = w1 * t1;
            yp[2] = w2 * (apc - bpd);
            yp[3] = w3 * t3;
            ia += step;
            ib += step;
            // The final decrements are dead; wrapping keeps them in-range
            // for usize when `offset < stride`.
            ic = ic.wrapping_sub(step);
            id = id.wrapping_sub(step);
        }
    }

    /// Unscaled inverse transform with the inverse-Makhoul unpack fused into
    /// the last pass: instead of finishing the FFT into a complex buffer and
    /// re-reading it for the store loop, the last butterfly writes its
    /// outputs straight to the real strided line as
    /// `data[out] = (z·post)·scale` (`out` = the even/odd slot map of
    /// [`FftPlan::run_folded_fwd`], `negate_odd` flips the sign of odd
    /// outputs for the DST). One full memory round trip cheaper than `run`
    /// plus a store loop; bit-identical to it because the butterfly and
    /// store arithmetic are unchanged.
    ///
    /// Requires `size ≥ 2` (size 1 has no stages — the caller special-cases
    /// it).
    ///
    /// # Panics
    ///
    /// Panics if either buffer length differs from the plan size.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_refolded_inv(
        &self,
        a: &mut [Complex],
        b: &mut [Complex],
        data: &mut [f64],
        offset: usize,
        stride: usize,
        post: f64,
        scale: f64,
        negate_odd: bool,
    ) {
        self.check_len(a.len());
        self.check_len(b.len());
        let (last, head) = match self.inv.split_last() {
            Some(pair) => pair,
            None => unreachable!("run_refolded_inv requires size >= 2"),
        };
        let (in_b, s) = Self::run_stages(head, 1, a, b, true, false);
        let z: &[Complex] = if in_b { &*b } else { &*a };
        let h = self.size;
        let n = 2 * h;
        let step = 4 * stride;
        // Per-stream output cursors: two ascending even streams, two
        // descending odd streams (slot map as in `run_folded_fwd`).
        let mut e0 = offset;
        let mut o0 = offset + (n - 1) * stride;
        match last {
            Stage::Radix4 { tw, .. } => {
                let [w1, w2, w3] = tw[0];
                let (xa, xr) = z.split_at(s);
                let (xb, xr) = xr.split_at(s);
                let (xc, xd) = xr.split_at(s);
                let mut e1 = offset + h * stride;
                let mut o1 = offset + (h - 1) * stride;
                let store = |data: &mut [f64], i: usize, v: Complex, neg: bool, down: bool| {
                    let (re, im) = if neg {
                        (-(v.re * post), -(v.im * post))
                    } else {
                        (v.re * post, v.im * post)
                    };
                    let j = if down { i - 2 * stride } else { i + 2 * stride };
                    data[i] = re * scale;
                    data[j] = im * scale;
                };
                for (((&a, &b), &c), &d) in xa.iter().zip(xb).zip(xc).zip(xd) {
                    let apc = a + c;
                    let amc = a - c;
                    let bpd = b + d;
                    let jbmd = (b - d).mul_i();
                    let t1 = amc + jbmd;
                    let t3 = amc - jbmd;
                    store(data, e0, apc + bpd, false, false);
                    store(data, e1, w1 * t1, false, false);
                    store(data, o0, w2 * (apc - bpd), negate_odd, true);
                    store(data, o1, w3 * t3, negate_odd, true);
                    e0 += step;
                    e1 += step;
                    o0 = o0.wrapping_sub(step);
                    o1 = o1.wrapping_sub(step);
                }
            }
            Stage::Radix2 => {
                let (xa, xb) = z.split_at(s);
                for (&a, &b) in xa.iter().zip(xb) {
                    let even = a + b;
                    let odd = a - b;
                    data[e0] = (even.re * post) * scale;
                    data[e0 + 2 * stride] = (even.im * post) * scale;
                    let (re, im) = if negate_odd {
                        (-(odd.re * post), -(odd.im * post))
                    } else {
                        (odd.re * post, odd.im * post)
                    };
                    data[o0] = re * scale;
                    data[o0 - 2 * stride] = im * scale;
                    e0 += step;
                    o0 = o0.wrapping_sub(step);
                }
            }
        }
    }

    /// One radix-4 DIF pass: `s` interleaved sub-transforms of length `len`.
    /// Reads `x`, writes `y` with the outputs of butterfly `p` landing at
    /// `4p + r` — the Stockham self-sorting store.
    ///
    /// The index algebra `x[q + s·(p + r·len/4)]`, `y[q + s·(4p + r)]` is
    /// expressed as slice splits and lock-step zips so every inner-loop
    /// access is provably in bounds — the compiler drops the per-element
    /// checks and vectorizes the butterfly.
    fn radix4_pass(
        len: usize,
        s: usize,
        tw: &[[Complex; 3]],
        x: &[Complex],
        y: &mut [Complex],
        invert: bool,
    ) {
        let quarter = s * (len / 4);
        let (xa, rest) = x.split_at(quarter);
        let (xb, rest) = rest.split_at(quarter);
        let (xc, xd) = rest.split_at(quarter);
        let butterflies = tw
            .iter()
            .zip(xa.chunks_exact(s))
            .zip(xb.chunks_exact(s))
            .zip(xc.chunks_exact(s))
            .zip(xd.chunks_exact(s))
            .zip(y.chunks_exact_mut(4 * s));
        for (((((w, pa), pb), pc), pd), yp) in butterflies {
            let [w1, w2, w3] = *w;
            let (y0, yr) = yp.split_at_mut(s);
            let (y1, yr) = yr.split_at_mut(s);
            let (y2, y3) = yr.split_at_mut(s);
            let lanes = pa
                .iter()
                .zip(pb)
                .zip(pc)
                .zip(pd)
                .zip(y0)
                .zip(y1)
                .zip(y2)
                .zip(y3);
            for (((((((a, b), c), d), y0), y1), y2), y3) in lanes {
                let apc = *a + *c;
                let amc = *a - *c;
                let bpd = *b + *d;
                let jbmd = (*b - *d).mul_i();
                let (t1, t3) = if invert {
                    (amc + jbmd, amc - jbmd)
                } else {
                    (amc - jbmd, amc + jbmd)
                };
                *y0 = apc + bpd;
                *y1 = w1 * t1;
                *y2 = w2 * (apc - bpd);
                *y3 = w3 * t3;
            }
        }
    }

    /// The final radix-2 pass: `s` twiddle-free length-2 butterflies.
    fn radix2_pass(s: usize, x: &[Complex], y: &mut [Complex]) {
        let (xa, xb) = x.split_at(s);
        let (ya, yb) = y.split_at_mut(s);
        for (((a, b), ya), yb) in xa.iter().zip(xb).zip(ya).zip(yb) {
            *ya = *a + *b;
            *yb = *a - *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).norm() < tol, "mismatch: {x} vs {y} (tol {tol})");
        }
    }

    fn test_signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect()
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let plan = FftPlan::new(8).unwrap();
        let mut data = vec![Complex::ZERO; 8];
        data[0] = Complex::ONE;
        plan.forward(&mut data);
        for z in &data {
            assert!((z.re - 1.0).abs() < 1e-14 && z.im.abs() < 1e-14);
        }
    }

    #[test]
    fn matches_naive_dft() {
        // Both parities of log₂(n) (radix-4 only, radix-4 + radix-2 tail),
        // up to the production grid sizes 512 and 1024.
        for &n in &[1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
            let plan = FftPlan::new(n).unwrap();
            let input = test_signal(n);
            let mut fast = input.clone();
            plan.forward(&mut fast);
            assert_close(&fast, &reference::naive_dft(&input), 1e-10 * n as f64);
        }
    }

    #[test]
    fn round_trip_identity() {
        for &n in &[1usize, 2, 4, 16, 32, 64, 256, 512, 1024] {
            let plan = FftPlan::new(n).unwrap();
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new(i as f64, -(i as f64) * 0.5))
                .collect();
            let mut data = input.clone();
            plan.forward(&mut data);
            plan.inverse(&mut data);
            assert_close(&data, &input, 1e-10 * n as f64);
        }
    }

    #[test]
    fn linearity() {
        let plan = FftPlan::new(16).unwrap();
        let a: Vec<Complex> = (0..16).map(|i| Complex::new(i as f64, 0.0)).collect();
        let b: Vec<Complex> = (0..16).map(|i| Complex::new(0.0, (i * i) as f64)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let mut fab: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        plan.forward(&mut fab);
        for i in 0..16 {
            assert!((fab[i] - (fa[i] + fb[i])).norm() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let plan = FftPlan::new(64).unwrap();
        let input: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64).cos(), (i as f64 * 0.3).sin()))
            .collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sq()).sum();
        let mut freq = input.clone();
        plan.forward(&mut freq);
        let freq_energy: f64 = freq.iter().map(|z| z.norm_sq()).sum::<f64>() / 64.0;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    fn non_power_of_two_size_is_a_typed_error() {
        let err = FftPlan::new(12).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("power of two"), "unexpected error: {text}");
        assert!(
            matches!(err, eplace_errors::EplaceError::Validation { .. }),
            "expected a Validation error"
        );
        assert!(FftPlan::new(0).is_err());
    }

    #[test]
    #[should_panic(expected = "differs from plan size")]
    fn wrong_buffer_length_panics() {
        let plan = FftPlan::new(8).unwrap();
        let mut data = vec![Complex::ZERO; 4];
        plan.forward(&mut data);
    }

    #[test]
    fn size_one_is_identity() {
        let plan = FftPlan::new(1).unwrap();
        let mut data = vec![Complex::new(3.0, 4.0)];
        plan.forward(&mut data);
        assert_eq!(data[0], Complex::new(3.0, 4.0));
        plan.inverse(&mut data);
        assert_eq!(data[0], Complex::new(3.0, 4.0));
        assert_eq!(plan.len(), 1);
        assert!(!plan.is_empty());
    }
}
