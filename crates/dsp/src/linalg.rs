//! Small linear-algebra solvers for equalizer and channel estimation.
//!
//! The time-domain MMSE equalizer solves a Toeplitz normal-equation system
//! (autocorrelation matrix of the received training signal); Levinson–Durbin
//! solves it in O(n²).

/// Solves the symmetric positive-definite Toeplitz system `T x = b`, where
/// `T[i][j] = r[|i-j|]`, via the Levinson recursion. Returns `None` if the
/// recursion becomes numerically singular.
pub fn levinson_solve(r: &[f64], b: &[f64]) -> Option<Vec<f64>> {
    let n = b.len();
    assert!(r.len() >= n, "need n autocorrelation lags");
    if n == 0 {
        return Some(Vec::new());
    }
    if r[0].abs() < 1e-300 {
        return None;
    }
    // Forward vector f and solution x, grown one order at a time.
    let mut f = vec![0.0; n];
    let mut x = vec![0.0; n];
    f[0] = 1.0 / r[0];
    x[0] = b[0] / r[0];
    let mut f_prev = f.clone();
    for m in 1..n {
        // error of forward vector against new row
        let mut ef = 0.0;
        for i in 0..m {
            ef += r[m - i] * f[i];
        }
        let denom = 1.0 - ef * ef;
        if denom.abs() < 1e-300 {
            return None;
        }
        // update forward vector: f_new = (f,0)/ (1-ef^2) - ef*(0,rev f)/(1-ef^2)
        f_prev[..m].copy_from_slice(&f[..m]);
        f_prev[m] = 0.0;
        for i in 0..=m {
            let rev = if i == 0 { 0.0 } else { f_prev[m - i] };
            f[i] = (f_prev[i] - ef * rev) / denom;
        }
        // error of x against new row
        let mut ex = 0.0;
        for i in 0..m {
            ex += r[m - i] * x[i];
        }
        let coeff = b[m] - ex;
        for i in 0..=m {
            // backward vector of the order-(m+1) system: b_i = f_{m-i}
            x[i] += coeff * f[m - i];
        }
    }
    // backward vector for symmetric Toeplitz is reversed forward vector;
    // the recursion above folds that in.
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the full Toeplitz matrix from its first column (symmetric
    /// case).
    fn toeplitz_matrix(r: &[f64], n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..n).map(|j| r[i.abs_diff(j)]).collect())
            .collect()
    }

    fn rand_seq(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64) - 0.5
            })
            .collect()
    }

    /// Builds a valid autocorrelation sequence from a random signal so the
    /// Toeplitz matrix is positive definite.
    fn autocorr(sig: &[f64], lags: usize) -> Vec<f64> {
        (0..lags)
            .map(|l| {
                let mut acc = 0.0;
                for i in 0..sig.len() - l {
                    acc += sig[i] * sig[i + l];
                }
                acc
            })
            .collect()
    }

    #[test]
    fn levinson_solution_satisfies_system() {
        let n = 24;
        let sig = rand_seq(500, 42);
        let mut r = autocorr(&sig, n);
        r[0] *= 1.01;
        let b = rand_seq(n, 7);
        let x = levinson_solve(&r, &b).unwrap();
        for (row, bi) in toeplitz_matrix(&r, n).iter().zip(&b) {
            let ax: f64 = row.iter().zip(&x).map(|(a, xj)| a * xj).sum();
            assert!((ax - bi).abs() < 1e-7);
        }
    }

    #[test]
    fn identity_system_returns_rhs() {
        let r = vec![1.0, 0.0, 0.0, 0.0];
        let b = vec![3.0, -1.0, 2.0, 0.5];
        let x = levinson_solve(&r, &b).unwrap();
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_toeplitz_returns_none() {
        let r = vec![0.0, 0.0, 0.0];
        assert!(levinson_solve(&r, &[1.0, 1.0, 1.0]).is_none());
    }

    #[test]
    fn empty_system_is_trivial() {
        assert_eq!(levinson_solve(&[], &[]), Some(vec![]));
    }
}
