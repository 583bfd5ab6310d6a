//! SOCS (sum of coherent systems) kernel construction.
//!
//! A partially coherent imaging system is described by its transmission
//! cross coefficient (TCC); the Hopkins formulation diagonalises the TCC
//! into a rank-ordered set of coherent kernels so that the aerial image is
//! `I = Σ_j w_j |m ⊛ k_j|²`. For a circular pupil with Gaussian apodisation
//! the eigenfunctions are Hermite–Gaussian modes, which we use directly:
//! kernel `(m, n)` is `H_m(x/s) H_n(y/s) exp(-(x²+y²)/(2s²))` with weight
//! decaying geometrically in the mode order, and `s` tied to the process's
//! Rayleigh resolution. Defocus enters as a quadratic phase that broadens
//! the effective kernel.

use litho_tensor::{pool, Complex};

use crate::ProcessConfig;

/// One coherent kernel of the SOCS expansion: spatial-domain complex
/// amplitude samples on the simulation grid (wrap-around origin), plus its
/// eigenvalue weight.
#[derive(Debug, Clone)]
pub struct OpticalKernel {
    /// Eigenvalue weight `w_j` of this coherent system.
    pub weight: f64,
    /// Kernel samples in wrap-around (FFT) order, `size × size`.
    pub samples: Vec<Complex>,
    /// Grid size per side.
    pub size: usize,
}

/// Physicists' Hermite polynomial `H_n(x)` by the three-term recurrence.
///
/// # Example
///
/// ```
/// assert_eq!(litho_sim::hermite(0, 2.0), 1.0);
/// assert_eq!(litho_sim::hermite(1, 2.0), 4.0);
/// assert_eq!(litho_sim::hermite(2, 2.0), 14.0); // 4x² - 2
/// ```
pub fn hermite(n: usize, x: f64) -> f64 {
    match n {
        0 => 1.0,
        1 => 2.0 * x,
        _ => {
            let mut h0 = 1.0;
            let mut h1 = 2.0 * x;
            for k in 1..n {
                let h2 = 2.0 * x * h1 - 2.0 * k as f64 * h0;
                h0 = h1;
                h1 = h2;
            }
            h1
        }
    }
}

/// Mode orders `(m, n)` of the first `count` Hermite–Gaussian kernels in
/// increasing total order (the TCC eigenvalue ordering).
fn mode_orders(count: usize) -> Vec<(usize, usize)> {
    let mut modes = Vec::with_capacity(count);
    let mut total = 0usize;
    'outer: loop {
        for m in 0..=total {
            let n = total - m;
            modes.push((m, n));
            if modes.len() == count {
                break 'outer;
            }
        }
        total += 1;
    }
    modes
}

/// Builds the SOCS kernel set for a process on a `size × size` grid with
/// physical `pitch_nm`, at defocus `defocus_nm` (0 = best focus).
///
/// Kernels are returned in wrap-around order ready for FFT convolution,
/// and are jointly normalised so that a clear-field mask images to
/// intensity 1 at best focus.
///
/// Defocus enters only through `defocus²` and an odd phase, so the kernels
/// at `-d` are the exact complex conjugates of those at `d`.
pub fn build_kernels(
    process: &ProcessConfig,
    size: usize,
    pitch_nm: f64,
    defocus_nm: f64,
    count: usize,
) -> Vec<OpticalKernel> {
    // Width of the fundamental mode: the Rayleigh resolution sets the
    // amplitude spread; partial coherence (σ) tightens the effective
    // intensity kernel, which we absorb into the width.
    let base_sigma_nm = process.rayleigh_nm() / (1.0 + process.sigma) * 0.75;
    // Defocus broadens the point spread roughly quadratically.
    let defocus_broaden = 1.0 + (defocus_nm / process.wavelength_nm).powi(2) * 3.0;
    let sigma_nm = base_sigma_nm * defocus_broaden;
    let sigma_px = sigma_nm / pitch_nm;
    // Defocus phase: quadratic in radius, scaled to stay subtle.
    let phase_coeff = defocus_nm / process.wavelength_nm * 0.5;

    // The kernels vanish where r² = u² + v² > 40, and r² ≥ u², so only the
    // grid lines with u² ≤ 40 carry samples. `axis` lists them in
    // wrap-around (memory) order with their normalised coordinate; the
    // grid is square, so it serves rows and columns alike.
    let half = size as isize / 2;
    let mut axis: Vec<(usize, f64)> = Vec::new();
    for x in 0..size {
        // Centered coordinate, then wrap to FFT order.
        let cx = x as isize - half;
        let u = cx as f64 / sigma_px;
        if u * u > 40.0 {
            continue;
        }
        axis.push(((cx.rem_euclid(size as isize)) as usize, u));
    }
    axis.sort_unstable_by_key(|&(f, _)| f);
    let support = || {
        axis.iter()
            .flat_map(|&(fy, _)| axis.iter().map(move |&(fx, _)| fy * size + fx))
    };

    // Envelope and defocus phase of each support pixel, shared by every
    // mode (`None` outside the r² ≤ 40 disc).
    let pixels: Vec<Option<(f64, f64, f64)>> = axis
        .iter()
        .flat_map(|&(_, v)| {
            axis.iter().map(move |&(_, u)| {
                let r2 = u * u + v * v;
                if r2 > 40.0 {
                    return None;
                }
                let env = (-(r2) / 2.0).exp();
                let phase = phase_coeff * r2;
                Some((env, phase.cos(), phase.sin()))
            })
        })
        .collect();

    let modes = mode_orders(count);
    // `herm[k][i]` is `H_k` at the i-th support coordinate.
    let max_order = modes.iter().map(|&(m, n)| m.max(n)).max().unwrap_or(0);
    let herm: Vec<Vec<f64>> = (0..=max_order)
        .map(|k| axis.iter().map(|&(_, u)| hermite(k, u)).collect())
        .collect();

    // The modes are independent, so they build in parallel.
    let mut kernels: Vec<OpticalKernel> = modes
        .iter()
        .map(|_| OpticalKernel {
            weight: 0.0,
            samples: Vec::new(),
            size,
        })
        .collect();
    pool::parallel_for_chunks(&mut kernels, 1, |j, slot| {
        let (m, n) = modes[j];
        let mut samples = vec![Complex::ZERO; size * size];
        let (hu, hv) = (&herm[m], &herm[n]);
        let mut px = pixels.iter();
        for (iy, &(fy, _)) in axis.iter().enumerate() {
            for (ix, &(fx, _)) in axis.iter().enumerate() {
                if let Some(&Some((env, cos, sin))) = px.next() {
                    let amp = hu[ix] * hv[iy] * env;
                    samples[fy * size + fx] = Complex::new(amp * cos, amp * sin);
                }
            }
        }
        // Normalise each mode to unit L2 energy so the geometric
        // eigenvalue decay in `weight` is meaningful (Hermite polynomial
        // magnitudes grow factorially with order). Samples off the support
        // are zero, so the sum and the scaling visit the support only, in
        // memory order.
        let energy: f64 = support().map(|i| samples[i].norm_sqr()).sum();
        if energy > 0.0 {
            let inv = 1.0 / energy.sqrt();
            for i in support() {
                samples[i] = samples[i] * inv;
            }
        }
        slot[0] = OpticalKernel {
            weight: 0.35f64.powi((m + n) as i32),
            samples,
            size,
        };
    });

    // Normalise: a clear field (transmission 1 everywhere) must image to
    // intensity 1. For kernel j the clear-field amplitude is Σ samples,
    // so I_clear = Σ_j w_j |Σ k_j|². Odd modes integrate to ~0 and do not
    // contribute to the clear field, which is physical.
    let clear: f64 = kernels
        .iter()
        .map(|k| {
            let s = support().fold(Complex::ZERO, |acc, i| acc + k.samples[i]);
            k.weight * s.norm_sqr()
        })
        .sum();
    if clear > 0.0 {
        let scale = 1.0 / clear;
        for k in &mut kernels {
            k.weight *= scale;
        }
    }
    kernels
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full-grid reference build: every pixel of every mode, with
    /// `exp`, `cos` and `sin` per mode.
    fn reference_build_kernels(
        process: &ProcessConfig,
        size: usize,
        pitch_nm: f64,
        defocus_nm: f64,
        count: usize,
    ) -> Vec<OpticalKernel> {
        let base_sigma_nm = process.rayleigh_nm() / (1.0 + process.sigma) * 0.75;
        let defocus_broaden = 1.0 + (defocus_nm / process.wavelength_nm).powi(2) * 3.0;
        let sigma_nm = base_sigma_nm * defocus_broaden;
        let sigma_px = sigma_nm / pitch_nm;
        let mut kernels: Vec<OpticalKernel> = mode_orders(count)
            .iter()
            .map(|&(m, n)| {
                let weight = 0.35f64.powi((m + n) as i32);
                let mut samples = vec![Complex::ZERO; size * size];
                let half = size as isize / 2;
                let phase_coeff = defocus_nm / process.wavelength_nm * 0.5;
                for y in 0..size {
                    for x in 0..size {
                        let cy = y as isize - half;
                        let cx = x as isize - half;
                        let fy = (cy.rem_euclid(size as isize)) as usize;
                        let fx = (cx.rem_euclid(size as isize)) as usize;
                        let u = cx as f64 / sigma_px;
                        let v = cy as f64 / sigma_px;
                        let r2 = u * u + v * v;
                        if r2 > 40.0 {
                            continue;
                        }
                        let env = (-(r2) / 2.0).exp();
                        let amp = hermite(m, u) * hermite(n, v) * env;
                        let phase = phase_coeff * r2;
                        samples[fy * size + fx] =
                            Complex::new(amp * phase.cos(), amp * phase.sin());
                    }
                }
                let energy: f64 = samples.iter().map(|c| c.norm_sqr()).sum();
                if energy > 0.0 {
                    let inv = 1.0 / energy.sqrt();
                    for s in &mut samples {
                        *s = *s * inv;
                    }
                }
                OpticalKernel {
                    weight,
                    samples,
                    size,
                }
            })
            .collect();
        let clear: f64 = kernels
            .iter()
            .map(|k| {
                let s = k.samples.iter().fold(Complex::ZERO, |acc, &c| acc + c);
                k.weight * s.norm_sqr()
            })
            .sum();
        if clear > 0.0 {
            let scale = 1.0 / clear;
            for k in &mut kernels {
                k.weight *= scale;
            }
        }
        kernels
    }

    fn kernel_bits(kernels: &[OpticalKernel]) -> Vec<(u64, Vec<(u64, u64)>)> {
        kernels
            .iter()
            .map(|k| {
                let samples = k.samples.iter().map(|c| (c.re.to_bits(), c.im.to_bits()));
                (k.weight.to_bits(), samples.collect())
            })
            .collect()
    }

    /// Both presets' focus planes, at grids where the support is cut by
    /// the grid edge (16), partly (64) and not at all (256).
    fn planes() -> Vec<(ProcessConfig, usize, f64, f64)> {
        let mut out = Vec::new();
        for p in [ProcessConfig::n10(), ProcessConfig::n7()] {
            for (size, pitch) in [(16, 8.0), (64, 8.0), (64, 16.0), (256, 8.0)] {
                for &d in &p.focus_stack_nm {
                    out.push((p.clone(), size, pitch, d));
                }
            }
        }
        out
    }

    #[test]
    fn support_build_matches_the_full_grid_build_bit_for_bit() {
        for (p, size, pitch, d) in planes() {
            let got = build_kernels(&p, size, pitch, d, p.rigorous_kernel_count);
            let want = reference_build_kernels(&p, size, pitch, d, p.rigorous_kernel_count);
            assert!(
                kernel_bits(&got) == kernel_bits(&want),
                "{} {size} {pitch} {d}",
                p.name
            );
        }
        // Degenerate grids and a width wider than the grid.
        let p = ProcessConfig::n10();
        for (size, pitch) in [(1, 8.0), (2, 8.0), (4, 0.5)] {
            let got = build_kernels(&p, size, pitch, 20.0, 6);
            let want = reference_build_kernels(&p, size, pitch, 20.0, 6);
            assert!(kernel_bits(&got) == kernel_bits(&want), "{size} {pitch}");
        }
    }

    #[test]
    fn opposite_defocus_builds_conjugate_kernels() {
        for (p, size, pitch, d) in planes() {
            let plus = build_kernels(&p, size, pitch, d, p.rigorous_kernel_count);
            let minus = build_kernels(&p, size, pitch, -d, p.rigorous_kernel_count);
            for (a, b) in plus.iter().zip(&minus) {
                assert_eq!(a.weight.to_bits(), b.weight.to_bits());
                // `==` is bitwise equality up to the sign of a zero.
                assert!(
                    a.samples
                        .iter()
                        .zip(&b.samples)
                        .all(|(a, b)| a.re == b.re && a.im == -b.im),
                    "{} {size} {pitch} {d}",
                    p.name
                );
            }
        }
    }

    #[test]
    fn hermite_low_orders() {
        assert_eq!(hermite(0, 3.0), 1.0);
        assert_eq!(hermite(1, 3.0), 6.0);
        assert_eq!(hermite(2, 3.0), 34.0); // 4*9 - 2
        assert_eq!(hermite(3, 1.0), -4.0); // 8 - 12
    }

    #[test]
    fn mode_ordering_is_total_order_major() {
        assert_eq!(mode_orders(4), vec![(0, 0), (0, 1), (1, 0), (0, 2)]);
    }

    #[test]
    fn fundamental_kernel_dominates() {
        let p = ProcessConfig::n10();
        let kernels = build_kernels(&p, 64, 8.0, 0.0, 4);
        assert_eq!(kernels.len(), 4);
        assert!(kernels[0].weight > kernels[3].weight);
    }

    #[test]
    fn kernel_centered_at_origin_in_wraparound_order() {
        let p = ProcessConfig::n10();
        let kernels = build_kernels(&p, 64, 8.0, 0.0, 1);
        let k = &kernels[0];
        // The peak of the fundamental Gaussian sits at index (0,0).
        let peak = k.samples[0].abs();
        for &s in &k.samples {
            assert!(s.abs() <= peak + 1e-12);
        }
    }

    #[test]
    fn defocus_broadens_kernel() {
        let p = ProcessConfig::n10();
        let focused = build_kernels(&p, 64, 8.0, 0.0, 1);
        let defocused = build_kernels(&p, 64, 8.0, 60.0, 1);
        let width = |k: &OpticalKernel| -> f64 {
            // Second moment of |amplitude| about the origin.
            let size = k.size as isize;
            let mut num = 0.0;
            let mut den = 0.0;
            for y in 0..k.size {
                for x in 0..k.size {
                    let cy = if (y as isize) < size / 2 { y as isize } else { y as isize - size };
                    let cx = if (x as isize) < size / 2 { x as isize } else { x as isize - size };
                    let a = k.samples[y * k.size + x].abs();
                    num += a * ((cy * cy + cx * cx) as f64);
                    den += a;
                }
            }
            num / den
        };
        assert!(width(&defocused[0]) > width(&focused[0]));
    }
}
