use crate::{Complex, FftPlan, Pow2};
use eplace_errors::EplaceError;
use std::f64::consts::PI;

/// A reusable plan for cosine/sine transforms of one fixed power-of-two size.
///
/// * [`DctPlan::dct2`] — forward DCT-II (the analysis step of the Poisson
///   solve),
/// * [`DctPlan::idct2`] — exact inverse of `dct2`,
/// * [`DctPlan::dct3`] — DCT-III synthesis (`(N/2)·idct2`), used for the
///   potential ψ,
/// * [`DctPlan::dst3`] — DST-III-style synthesis, used for the field ξ.
///
/// Every transform folds its length-`N` real line into one length-`N/2`
/// complex [`FftPlan`] (Makhoul's even/odd repacking into the real and
/// imaginary lanes), so it costs `O(N log N)` with half the butterfly work
/// of a full-size complex FFT:
///
/// * the forward path gathers the fold straight from the real line inside
///   the FFT's first pass, then unfolds each conjugate bin pair into two
///   DCT outputs;
/// * the synthesis paths rebuild the Hermitian half-spectrum, refold it into
///   one half-size inverse input, and fuse the inverse-Makhoul unpack, the
///   normalization, the caller's scale and the DST sign flips into the
///   FFT's last pass.
///
/// The allocating methods above are conveniences. The solver runs the
/// in-place strided kernels ([`DctPlan::dct2_strided`] and friends), which
/// transform the line `data[offset + i·stride]` out of a caller-owned
/// [`DctScratch`]: a grid row (`stride = 1`) or column (`stride = nx`)
/// transforms with no staging copy and no allocation.
///
/// # Examples
///
/// ```
/// use eplace_spectral::DctPlan;
///
/// let plan = DctPlan::new(16).unwrap();
/// let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
/// let c = plan.dct2(&x);
/// let y = plan.dct3(&c);
/// for (a, b) in x.iter().zip(&y) {
///     assert!((8.0 * a - b).abs() < 1e-9); // dct3∘dct2 = (N/2)·id
/// }
/// ```
#[derive(Debug, Clone)]
pub struct DctPlan {
    size: usize,
    /// The half-size complex FFT of length `N/2` every transform runs.
    fft: FftPlan,
    /// `Re(e^{-iπ/4})`, the forward post-twiddle of the purely real
    /// Nyquist-pair bin `N/2`.
    nyquist: f64,
    /// Synthesis pre-twiddles `e^{+iπu/(2N)}` for `u ≤ N/2` (exact
    /// conjugates of the forward post-twiddles `e^{-iπu/(2N)}`).
    inv_twiddles: Vec<Complex>,
    /// Forward unfold twiddles `s[u] = i·e^{−2πiu/N}` for `u ≤ N/2`:
    /// `U[u] = (Z[u]+conj(Z[H−u])) − s[u]·(Z[u]−conj(Z[H−u]))` recovers
    /// twice the full-size spectrum bin from the half-spectrum
    /// symmetric/antisymmetric parts.
    unfold: Vec<Complex>,
    /// Forward projections with the unfold's `1/2` pre-folded:
    /// `[g.re, g.im, g'.re, g'.im]` where `g = e^{-iπu/(2N)}/2` and
    /// `g' = e^{-iπ(N−u)/(2N)}/2`, so `C[u] = g.re·U.re − g.im·U.im` and
    /// `C[N−u] = g'.re·U.re + g'.im·U.im` cost no extra scaling pass.
    /// Slot 0 is unused (bins 0 and H are handled separately).
    fwd_half: Vec<[f64; 4]>,
    /// Synthesis refold twiddles `e^{+2πiu/N}` for `u < N/2`, recombining
    /// the even/odd half-spectra into the half-size inverse input.
    refold: Vec<Complex>,
}

/// Reusable work buffers for the strided transform kernels.
///
/// The allocating [`DctPlan`] conveniences build one of these per call; a
/// hot loop (the placer runs four grid transforms per Nesterov iteration)
/// constructs one `DctScratch` per plan size and reuses it instead.
#[derive(Debug, Clone)]
pub struct DctScratch {
    size: usize,
    /// Half-size FFT ping-pong buffer A (`N/2` slots).
    half_a: Vec<Complex>,
    /// Half-size FFT ping-pong buffer B (`N/2` slots).
    half_b: Vec<Complex>,
    /// Natural-order Hermitian half-spectrum (`N/2 + 1` slots).
    vh: Vec<Complex>,
}

impl DctScratch {
    /// Scratch sized for a plan of length `size`.
    pub fn new(size: usize) -> Self {
        let h = size / 2;
        DctScratch {
            size,
            half_a: vec![Complex::ZERO; h],
            half_b: vec![Complex::ZERO; h],
            vh: vec![Complex::ZERO; h + 1],
        }
    }

    /// The plan size this scratch serves.
    #[inline]
    pub fn len(&self) -> usize {
        self.size
    }

    /// `true` for size-zero scratch (never produced by the solver).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }
}

/// Which synthesis a [`DctPlan::synth`] call performs.
#[derive(Clone, Copy)]
enum Synth {
    /// `1/N` normalization only (exact inverse of `dct2`).
    Idct2,
    /// The DCT-III scale `(1/N)·(N/2)`.
    Dct3,
    /// DCT-III over reversed coefficients plus the DST's alternating sign
    /// flip on odd outputs.
    Dst3,
}

impl Synth {
    fn name(self) -> &'static str {
        match self {
            Synth::Idct2 => "idct2",
            Synth::Dct3 => "dct3",
            Synth::Dst3 => "dst3",
        }
    }
}

/// An in-place kernel over a whole contiguous line, as the allocating
/// conveniences run it.
type LineKernel = fn(&DctPlan, &mut [f64], &mut DctScratch);

impl DctPlan {
    /// Builds a plan for transforms of length `size`.
    ///
    /// # Errors
    ///
    /// [`EplaceError::Validation`] when `size` is not a power of two. Callers
    /// with a statically valid size use [`DctPlan::for_pow2`] instead.
    pub fn new(size: usize) -> Result<Self, EplaceError> {
        Pow2::new(size).map(Self::for_pow2)
    }

    /// Builds a plan from a checked-at-construction size — infallible.
    pub fn for_pow2(size: Pow2) -> Self {
        let size = size.get();
        let h = size / 2;
        let fwd_twiddle = |u: usize| Complex::from_polar_unit(-PI * u as f64 / (2 * size) as f64);
        let inv_twiddles = (0..=h).map(|u| fwd_twiddle(u).conj()).collect();
        let unfold: Vec<Complex> = (0..=h)
            .map(|u| Complex::from_polar_unit(-2.0 * PI * u as f64 / size as f64).mul_i())
            .collect();
        let fwd_half: Vec<[f64; 4]> = (0..h)
            .map(|u| {
                if u == 0 {
                    [0.0; 4]
                } else {
                    let g = fwd_twiddle(u);
                    let gn = fwd_twiddle(size - u);
                    [0.5 * g.re, 0.5 * g.im, 0.5 * gn.re, 0.5 * gn.im]
                }
            })
            .collect();
        let refold: Vec<Complex> = (0..h)
            .map(|u| Complex::from_polar_unit(2.0 * PI * u as f64 / size as f64))
            .collect();
        DctPlan {
            size,
            fft: FftPlan::for_pow2(Pow2(h.max(1))),
            nyquist: fwd_twiddle(h).re,
            inv_twiddles,
            unfold,
            fwd_half,
            refold,
        }
    }

    /// The transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.size
    }

    /// Always `false`; present for the `len`/`is_empty` convention.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    fn check(&self, len: usize, what: &str) {
        assert_eq!(len, self.size, "{what} length mismatch");
    }

    fn check_strided(&self, len: usize, offset: usize, stride: usize, what: &str) {
        assert!(stride > 0, "{what} stride must be positive");
        assert!(
            offset + (self.size - 1) * stride < len,
            "{what} strided line (offset {offset}, stride {stride}) exceeds buffer length {len}"
        );
    }

    /// Runs `kernel` over a copy of `input` with fresh scratch.
    fn allocating(&self, input: &[f64], what: &str, kernel: LineKernel) -> Vec<f64> {
        self.check(input.len(), what);
        let mut out = input.to_vec();
        kernel(self, &mut out, &mut DctScratch::new(self.size));
        out
    }

    /// Forward DCT-II: `X[u] = Σ_n x[n]·cos(π·u·(2n+1)/(2N))`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the plan size.
    pub fn dct2(&self, input: &[f64]) -> Vec<f64> {
        self.allocating(input, "dct2", |p, d, s| p.dct2_strided(d, 0, 1, s))
    }

    /// Exact inverse of [`DctPlan::dct2`].
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the plan size.
    pub fn idct2(&self, coeffs: &[f64]) -> Vec<f64> {
        self.allocating(coeffs, "idct2", |p, d, s| p.idct2_strided(d, 0, 1, s))
    }

    /// DCT-III synthesis:
    /// `y[n] = X[0]/2 + Σ_{u≥1} X[u]·cos(π·u·(2n+1)/(2N))`.
    ///
    /// Satisfies `dct3(dct2(x)) == (N/2)·x`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the plan size.
    pub fn dct3(&self, coeffs: &[f64]) -> Vec<f64> {
        self.allocating(coeffs, "dct3", |p, d, s| p.dct3_strided(d, 0, 1, 1.0, s))
    }

    /// DST-III-style synthesis used for the electric field:
    /// `y[n] = Σ_{u=1}^{N-1} b[u]·sin(π·u·(2n+1)/(2N))`.
    ///
    /// `b[0]` multiplies the identically-zero basis function `sin(0)` and is
    /// therefore ignored.
    ///
    /// Implemented through the identity
    /// `sin(πu(2n+1)/(2N)) = (−1)ⁿ·cos(π(N−u)(2n+1)/(2N))`, which turns the
    /// sine synthesis into a coefficient-reversed [`DctPlan::dct3`] followed
    /// by alternating sign flips; the reversal is fused into the spectrum
    /// rebuild and the sign flips into the unpacking store, so no extra
    /// passes run.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the plan size.
    pub fn dst3(&self, coeffs: &[f64]) -> Vec<f64> {
        self.allocating(coeffs, "dst3", |p, d, s| p.dst3_strided(d, 0, 1, 1.0, s))
    }

    /// [`DctPlan::dct2`] in place over the strided line
    /// `data[offset + i·stride]`.
    ///
    /// Folds the length-`N` real line into a length-`N/2` complex FFT
    /// (Makhoul pack of even/odd samples into real/imaginary lanes), runs
    /// the mixed-radix half-size kernel, then unfolds each conjugate bin
    /// pair back to two DCT outputs. Elements off the line are untouched.
    ///
    /// # Panics
    ///
    /// Panics if the scratch length differs from the plan size or the
    /// strided line runs past `data`.
    pub fn dct2_strided(
        &self,
        data: &mut [f64],
        offset: usize,
        stride: usize,
        scratch: &mut DctScratch,
    ) {
        self.check_strided(data.len(), offset, stride, "dct2");
        self.check(scratch.len(), "dct2 scratch");
        let n = self.size;
        if n == 1 {
            return;
        }
        let h = n / 2;
        // Makhoul fold: half-FFT input m packs samples makhoul(2m) and
        // makhoul(2m+1) — even slots (4m, 4m+2) for m < H/2, odd slots
        // (2N−1−4m, 2N−3−4m) for m ≥ H/2, the exact mirror of the synthesis
        // store. For n ≥ 8 the gather is fused into the first radix-4 pass;
        // n = 4 gathers explicitly because its half FFT opens with radix-2.
        let in_b = if n == 2 {
            scratch.half_a[0] = Complex::new(data[offset], data[offset + stride]);
            false
        } else if n == 4 {
            scratch.half_a[0] = Complex::new(data[offset], data[offset + 2 * stride]);
            scratch.half_a[1] = Complex::new(data[offset + 3 * stride], data[offset + stride]);
            self.fft
                .run(&mut scratch.half_a, &mut scratch.half_b, false)
        } else {
            self.fft.run_folded_fwd(
                data,
                offset,
                stride,
                &mut scratch.half_a,
                &mut scratch.half_b,
            )
        };
        let z: &[Complex] = if in_b {
            &scratch.half_b
        } else {
            &scratch.half_a
        };
        // Bin 0 and the Nyquist-pair bin H are purely real.
        let z0 = z[0];
        data[offset] = z0.re + z0.im;
        data[offset + h * stride] = self.nyquist * (z0.re - z0.im);
        // Each u < H yields twice the full-size spectrum bin
        // `U[u] = (Z[u] + conj(Z[H−u])) − s[u]·(Z[u] − conj(Z[H−u]))`; the
        // half-scaled projection tables absorb the 1/2, and Hermitian
        // symmetry gives bin `N−u` from the same `U[u]` for free.
        let mut iu = offset + stride;
        let mut ib = offset + (n - 1) * stride;
        let bins = z[1..]
            .iter()
            .zip(z[1..].iter().rev())
            .zip(&self.unfold[1..h])
            .zip(&self.fwd_half[1..]);
        for (((&zu, &zr), s), g) in bins {
            let zc = zr.conj();
            let u = (zu + zc) - *s * (zu - zc);
            data[iu] = g[0] * u.re - g[1] * u.im;
            data[ib] = g[2] * u.re + g[3] * u.im;
            iu += stride;
            ib -= stride;
        }
    }

    /// [`DctPlan::idct2`] in place over the strided line
    /// `data[offset + i·stride]`.
    ///
    /// # Panics
    ///
    /// Panics if the scratch length differs from the plan size or the
    /// strided line runs past `data`.
    pub fn idct2_strided(
        &self,
        data: &mut [f64],
        offset: usize,
        stride: usize,
        scratch: &mut DctScratch,
    ) {
        self.synth(data, offset, stride, 1.0, scratch, Synth::Idct2)
    }

    /// [`DctPlan::dct3`] in place over the strided line
    /// `data[offset + i·stride]`, with `scale` fused into the store as
    /// `(value)·scale` — bitwise identical to synthesizing with scale `1.0`
    /// and scaling afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the scratch length differs from the plan size or the
    /// strided line runs past `data`.
    pub fn dct3_strided(
        &self,
        data: &mut [f64],
        offset: usize,
        stride: usize,
        scale: f64,
        scratch: &mut DctScratch,
    ) {
        self.synth(data, offset, stride, scale, scratch, Synth::Dct3)
    }

    /// [`DctPlan::dst3`] in place over the strided line
    /// `data[offset + i·stride]`, with `scale` fused into the store (see
    /// [`DctPlan::dct3_strided`]).
    ///
    /// # Panics
    ///
    /// Panics if the scratch length differs from the plan size or the
    /// strided line runs past `data`.
    pub fn dst3_strided(
        &self,
        data: &mut [f64],
        offset: usize,
        stride: usize,
        scale: f64,
        scratch: &mut DctScratch,
    ) {
        self.synth(data, offset, stride, scale, scratch, Synth::Dst3)
    }

    /// Synthesis core: rebuild the natural-order Hermitian half-spectrum
    /// `Vh[u] = conj(W[u])·(X[u] − i·X[N−u])` for `u ≤ H` (coefficients read
    /// mirrored for the DST), refold the even/odd halves into one half-size
    /// inverse input
    /// `Zc[u] = (Vh[u] + conj(Vh[H−u])) + i·e^{2πiu/N}·(Vh[u] − conj(Vh[H−u]))`,
    /// run the unscaled half-size inverse FFT, and unpack
    /// `y[2m] = Re(z[m])·post`, `y[2m+1] = Im(z[m])·post` through the
    /// inverse Makhoul permutation fused into the store. `post` is `1/N` for
    /// the exact idct2 and `1/2` (= `(1/N)·(N/2)`) for the DCT-III/DST-III
    /// scale; the store computes `(value·post)·scale` so a fused `scale` is
    /// bitwise identical to a separate scaling pass.
    fn synth(
        &self,
        data: &mut [f64],
        offset: usize,
        stride: usize,
        scale: f64,
        scratch: &mut DctScratch,
        mode: Synth,
    ) {
        let what = mode.name();
        self.check_strided(data.len(), offset, stride, what);
        self.check(scratch.len(), what);
        let n = self.size;
        if n == 1 {
            data[offset] = self.synth_size_one(data[offset], mode) * scale;
            return;
        }
        let dst = matches!(mode, Synth::Dst3);
        let h = n / 2;
        let vh = &mut scratch.vh;
        let mut iu = offset + stride;
        let mut ib = offset + (n - 1) * stride;
        if dst {
            vh[0] = Complex::ZERO;
            for (slot, w) in vh[1..].iter_mut().zip(&self.inv_twiddles[1..=h]) {
                *slot = Complex::new(data[ib], -data[iu]) * *w;
                iu += stride;
                ib -= stride;
            }
        } else {
            vh[0] = Complex::from(data[offset]);
            for (slot, w) in vh[1..].iter_mut().zip(&self.inv_twiddles[1..=h]) {
                *slot = Complex::new(data[iu], -data[ib]) * *w;
                iu += stride;
                ib -= stride;
            }
        }
        let vh = &scratch.vh;
        let refolded = scratch
            .half_a
            .iter_mut()
            .zip(&self.refold)
            .zip(&vh[..h])
            .zip(vh[1..].iter().rev());
        for (((slot, w), &vu), &vr) in refolded {
            let vc = vr.conj();
            let ve = vu + vc;
            let vo = *w * (vu - vc);
            *slot = ve + vo.mul_i();
        }
        let post = match mode {
            Synth::Idct2 => 1.0 / n as f64,
            Synth::Dct3 | Synth::Dst3 => 0.5,
        };
        if n == 2 {
            let in_b = self.fft.run(&mut scratch.half_a, &mut scratch.half_b, true);
            let z: &[Complex] = if in_b {
                &scratch.half_b
            } else {
                &scratch.half_a
            };
            // H = 1: slot 0 lands on even output 0, slot 1 on odd output 1.
            data[offset] = (z[0].re * post) * scale;
            let odd = z[0].im * post;
            data[offset + stride] = if dst { (-odd) * scale } else { odd * scale };
            return;
        }
        // For n ≥ 4, H is even: pairs with m < H/2 land on even output
        // slots (4m, 4m+2); pairs with m ≥ H/2 land on odd slots
        // (2N−1−4m, 2N−3−4m) — the mirror of the forward fold gather. The
        // inverse-Makhoul store (with post/scale and the DST sign flip on
        // odd outputs) is fused into the half-FFT's final pass.
        self.fft.run_refolded_inv(
            &mut scratch.half_a,
            &mut scratch.half_b,
            data,
            offset,
            stride,
            post,
            scale,
            dst,
        );
    }

    fn synth_size_one(&self, coeff: f64, mode: Synth) -> f64 {
        match mode {
            Synth::Idct2 => coeff,
            // c · (N/2) with N = 1.
            Synth::Dct3 => coeff * (self.size as f64 / 2.0),
            Synth::Dst3 => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "mismatch: {x} vs {y}");
        }
    }

    fn test_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() + 0.2 * (i as f64 * 1.7).cos())
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// Every size from 1 to 128 plus the production grid sizes 512 and
    /// 1024 (`grid_max` defaults to 1024): both parities of log₂(N/2), so
    /// the radix-4-only and radix-2-tail half FFTs, plus the special-cased
    /// `N ≤ 4` paths.
    const SIZES: [usize; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 512, 1024];

    #[test]
    fn dct2_matches_reference() {
        for n in SIZES {
            let plan = DctPlan::new(n).unwrap();
            let x = test_signal(n);
            assert_close(&plan.dct2(&x), &reference::naive_dct2(&x), 1e-9 * n as f64);
        }
    }

    #[test]
    fn idct2_inverts_dct2() {
        for n in SIZES {
            let plan = DctPlan::new(n).unwrap();
            let x = test_signal(n);
            assert_close(&plan.idct2(&plan.dct2(&x)), &x, 1e-10 * n as f64);
        }
    }

    #[test]
    fn dct3_matches_reference() {
        for n in SIZES {
            let plan = DctPlan::new(n).unwrap();
            let c = test_signal(n);
            assert_close(&plan.dct3(&c), &reference::naive_dct3(&c), 1e-9 * n as f64);
        }
    }

    #[test]
    fn dst3_matches_reference() {
        for n in SIZES {
            let plan = DctPlan::new(n).unwrap();
            let c = test_signal(n);
            assert_close(&plan.dst3(&c), &reference::naive_dst3(&c), 1e-9 * n as f64);
        }
    }

    #[test]
    fn dct3_dct2_is_half_n_identity() {
        let n = 32;
        let plan = DctPlan::new(n).unwrap();
        let x = test_signal(n);
        let y = plan.dct3(&plan.dct2(&x));
        let scaled: Vec<f64> = x.iter().map(|v| v * n as f64 / 2.0).collect();
        assert_close(&y, &scaled, 1e-9);
    }

    #[test]
    fn dst3_zeroth_coefficient_is_ignored() {
        let plan = DctPlan::new(8).unwrap();
        let mut c = test_signal(8);
        let a = plan.dst3(&c);
        c[0] = 1234.5;
        let b = plan.dst3(&c);
        assert_close(&a, &b, 1e-12);
    }

    #[test]
    fn dct2_of_single_cosine_mode_is_sparse() {
        let n = 16;
        let plan = DctPlan::new(n).unwrap();
        let u0 = 3;
        let x: Vec<f64> = (0..n)
            .map(|i| (PI * u0 as f64 * (2 * i + 1) as f64 / (2 * n) as f64).cos())
            .collect();
        let c = plan.dct2(&x);
        for (u, &v) in c.iter().enumerate() {
            if u == u0 {
                assert!((v - n as f64 / 2.0).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leakage at {u}: {v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let plan = DctPlan::new(8).unwrap();
        let _ = plan.dct2(&[1.0; 4]);
    }

    #[test]
    fn len_accessor() {
        let plan = DctPlan::new(4).unwrap();
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
    }

    #[test]
    fn strided_line_is_bitwise_contiguous_line() {
        // Running a kernel over a strided line must be bit-identical to
        // gathering the line, transforming it contiguously, and scattering
        // it back — and leave interstitial elements untouched.
        for &n in &[1usize, 2, 8, 32, 128] {
            let plan = DctPlan::new(n).unwrap();
            let mut scratch = DctScratch::new(n);
            let (offset, stride) = (3usize, 4usize);
            let len = offset + (n - 1) * stride + 2;
            let base: Vec<f64> = (0..len).map(|i| (i as f64 * 0.53).cos() + 0.1).collect();
            let gather =
                |b: &[f64]| -> Vec<f64> { (0..n).map(|i| b[offset + i * stride]).collect() };
            let scale = 1.7;

            type Kernel<'a> = Box<dyn Fn(&mut [f64], usize, usize, &mut DctScratch) + 'a>;
            let p = &plan;
            let cases: [(Kernel<'_>, &str); 4] = [
                (
                    Box::new(move |d, o, s, sc| p.dct2_strided(d, o, s, sc)),
                    "dct2",
                ),
                (
                    Box::new(move |d, o, s, sc| p.idct2_strided(d, o, s, sc)),
                    "idct2",
                ),
                (
                    Box::new(move |d, o, s, sc| p.dct3_strided(d, o, s, scale, sc)),
                    "dct3",
                ),
                (
                    Box::new(move |d, o, s, sc| p.dst3_strided(d, o, s, scale, sc)),
                    "dst3",
                ),
            ];
            for (kernel, name) in &cases {
                let mut line = gather(&base);
                kernel(&mut line, 0, 1, &mut scratch);
                let mut buf = base.clone();
                kernel(&mut buf, offset, stride, &mut scratch);
                assert_eq!(bits(&line), bits(&gather(&buf)), "{name} n {n}");
                for (i, (a, b)) in base.iter().zip(&buf).enumerate() {
                    let on_line =
                        i >= offset && (i - offset) % stride == 0 && (i - offset) / stride < n;
                    if !on_line {
                        assert_eq!(a.to_bits(), b.to_bits(), "{name} n {n} clobbered {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn scale_fusion_is_bitwise_separate_pass() {
        // The fused `scale` must equal synthesizing with scale 1.0 and then
        // multiplying — bit for bit — so the parallel 2-D path (scale in the
        // transpose-back) matches the serial fused path exactly.
        for &n in &[1usize, 2, 8, 64] {
            let plan = DctPlan::new(n).unwrap();
            let mut scratch = DctScratch::new(n);
            let x = test_signal(n);
            let scale = 0.731;
            for dst in [false, true] {
                let run = |d: &mut [f64], s: f64, sc: &mut DctScratch| {
                    if dst {
                        plan.dst3_strided(d, 0, 1, s, sc);
                    } else {
                        plan.dct3_strided(d, 0, 1, s, sc);
                    }
                };
                let mut fused = x.clone();
                run(&mut fused, scale, &mut scratch);
                let mut separate = x.clone();
                run(&mut separate, 1.0, &mut scratch);
                for v in separate.iter_mut() {
                    *v *= scale;
                }
                assert_eq!(bits(&fused), bits(&separate), "dst {dst} n {n}");
            }
        }
    }
}
