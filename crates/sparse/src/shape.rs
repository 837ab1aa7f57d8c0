//! Structural input descriptions: what the tuner keys sparse decisions
//! on.
//!
//! Dense families key on exact shapes; a sparse decision cannot key on
//! the full matrix (caching would never hit), so it keys on a compact
//! structural summary -- the [`SparseShape`]. Two matrices with the same
//! summary get the same tuning decision, which is exactly the paper's
//! input-awareness contract applied to structure instead of shape.
//! Fractional statistics are quantized to thousandths so the summary is
//! `Eq + Hash` and stable across platforms.

use crate::csr::Csr;
use isaac_device::DType;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Write;

/// Which sparse operation a shape describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SparseOp {
    /// Sparse matrix-vector product `y = A x`.
    Spmv,
    /// Sparse triangular solve `L x = b` (level-scheduled).
    Sptrsv,
    /// Symmetric Gauss-Seidel smoothing sweep (forward + backward).
    Symgs,
}

impl SparseOp {
    /// Mangled-name tag (also the parse key).
    pub fn tag(self) -> &'static str {
        match self {
            SparseOp::Spmv => "spmv",
            SparseOp::Sptrsv => "sptrsv",
            SparseOp::Symgs => "symgs",
        }
    }

    /// All operations, in tag order.
    pub const ALL: [SparseOp; 3] = [SparseOp::Spmv, SparseOp::Sptrsv, SparseOp::Symgs];
}

impl std::fmt::Display for SparseOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// The structural summary of a sparse input: the tuning problem's input
/// parameters, the model's input features, and (via `TuneKey`) the
/// serving layer's cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SparseShape {
    /// The operation.
    pub op: SparseOp,
    /// Matrix rows (square matrices throughout).
    pub rows: u32,
    /// Stored nonzeros.
    pub nnz: u32,
    /// Mean nnz/row, in thousandths.
    pub row_mean_milli: u32,
    /// Coefficient of variation of nnz/row, in thousandths.
    pub row_cv_milli: u32,
    /// Longest row's nnz.
    pub row_max: u32,
    /// Max `|i - j|` over stored entries.
    pub bandwidth: u32,
    /// Density of the 4x4 blocks touched by nonzeros, in thousandths
    /// (1000 = perfectly blocked, 62 = fully scattered).
    pub block_density_milli: u32,
    /// Element type.
    pub dtype: DType,
}

impl SparseShape {
    /// Extract the structural summary of `a` for operation `op`.
    pub fn from_csr(op: SparseOp, a: &Csr, dtype: DType) -> SparseShape {
        let rows = a.rows.max(1);
        let nnz = a.nnz().max(1);
        let lens: Vec<f64> = (0..a.rows).map(|i| a.row(i).0.len() as f64).collect();
        let mean = nnz as f64 / rows as f64;
        let var = lens.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / rows as f64;
        let cv = var.sqrt() / mean.max(1e-9);
        let row_max = lens.iter().cloned().fold(0.0, f64::max);
        let mut bandwidth = 0u32;
        let mut blocks = std::collections::HashSet::new();
        for i in 0..a.rows {
            let (cols, _) = a.row(i);
            for &c in cols {
                bandwidth = bandwidth.max((c as i64 - i as i64).unsigned_abs() as u32);
                blocks.insert(((i / 4) as u32, c / 4));
            }
        }
        let block_density = nnz as f64 / (blocks.len().max(1) as f64 * 16.0);
        SparseShape {
            op,
            rows: rows as u32,
            nnz: nnz as u32,
            row_mean_milli: milli(mean),
            row_cv_milli: milli(cv),
            row_max: row_max as u32,
            bandwidth,
            block_density_milli: milli(block_density.min(1.0)),
            dtype,
        }
    }

    /// Mean nnz/row as a float.
    pub fn row_mean(&self) -> f64 {
        self.row_mean_milli as f64 / 1000.0
    }

    /// Row-length coefficient of variation as a float.
    pub fn row_cv(&self) -> f64 {
        self.row_cv_milli as f64 / 1000.0
    }

    /// Block density as a float in `(0, 1]`.
    pub fn block_density(&self) -> f64 {
        self.block_density_milli as f64 / 1000.0
    }

    /// Useful FLOPs of the operation: `2 nnz` per multiply-add sweep,
    /// and SymGS runs a forward plus a backward sweep.
    pub fn flops(&self) -> f64 {
        let per_sweep = 2.0 * self.nnz as f64;
        match self.op {
            SparseOp::Spmv | SparseOp::Sptrsv => per_sweep,
            SparseOp::Symgs => 2.0 * per_sweep,
        }
    }

    /// Mangled short name, e.g.
    /// `sspmv_r4096_z81920_m20000_c500_x64_b128_d250`.
    pub fn name(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write_name(&mut out);
        out
    }

    /// Append [`SparseShape::name`] to `out`.
    pub fn write_name(&self, out: &mut String) {
        let _ = write!(
            out,
            "{}{}_r{}_z{}_m{}_c{}_x{}_b{}_d{}",
            self.dtype.blas_prefix(),
            self.op.tag(),
            self.rows,
            self.nnz,
            self.row_mean_milli,
            self.row_cv_milli,
            self.row_max,
            self.bandwidth,
            self.block_density_milli,
        );
    }

    /// Parse the body of a mangled name (everything after the dtype
    /// prefix character); inverse of [`SparseShape::name`].
    pub fn parse_body(body: &str, dtype: DType) -> Option<SparseShape> {
        let (op, rest) = SparseOp::ALL
            .into_iter()
            .find_map(|op| Some((op, body.strip_prefix(op.tag())?)))?;
        let rest = rest.strip_prefix('_')?;
        let mut fields = rest.split('_');
        let mut next =
            |tag: &str| -> Option<u32> { fields.next()?.strip_prefix(tag)?.parse().ok() };
        let shape = SparseShape {
            op,
            rows: next("r")?,
            nnz: next("z")?,
            row_mean_milli: next("m")?,
            row_cv_milli: next("c")?,
            row_max: next("x")?,
            bandwidth: next("b")?,
            block_density_milli: next("d")?,
            dtype,
        };
        if fields.next().is_some() {
            return None;
        }
        Some(shape)
    }
}

fn milli(v: f64) -> u32 {
    (v * 1000.0).round().max(0.0) as u32
}

/// Draw a random structural summary covering the generators' regimes.
/// Dataset generation samples summaries directly (building a CSR per
/// training sample would dominate generation time); the internal
/// consistency constraints (`row_max >= mean`, `bandwidth < rows`) match
/// what [`SparseShape::from_csr`] can produce.
pub fn random_sparse_shape(rng: &mut StdRng, dtypes: &[DType]) -> SparseShape {
    let op = SparseOp::ALL[rng.gen_range(0..3usize)];
    let rows = {
        let (l, h) = (256.0f64.ln(), 262_144.0f64.ln());
        rng.gen_range(l..=h).exp() as u32
    };
    let mean = {
        let (l, h) = (2.0f64.ln(), (256.0f64.min(rows as f64 / 2.0)).ln());
        rng.gen_range(l..=h).exp()
    };
    let nnz = ((rows as f64 * mean) as u64).min(u32::MAX as u64) as u32;
    let cv: f64 = if rng.gen_bool(0.4) {
        rng.gen_range(0.0..0.3) // near-regular (banded / uniform)
    } else {
        rng.gen_range(0.3..3.0) // skewed (power-law)
    };
    let row_max = ((mean * (1.0 + 4.0 * cv)).ceil() as u32).clamp(mean.ceil() as u32, rows);
    let bandwidth = if rng.gen_bool(0.35) {
        // Banded regime: bandwidth a small multiple of the mean row.
        ((mean * rng.gen_range(1.0..4.0)) as u32).clamp(1, rows - 1)
    } else {
        rng.gen_range(rows / 4..rows).max(1)
    };
    let block_density = rng.gen_range(0.0625..=1.0);
    SparseShape {
        op,
        rows,
        nnz,
        row_mean_milli: milli(mean),
        row_cv_milli: milli(cv),
        row_max,
        bandwidth,
        block_density_milli: milli(block_density),
        dtype: dtypes[rng.gen_range(0..dtypes.len())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr;
    use rand::SeedableRng;

    #[test]
    fn name_roundtrips_through_parse_body() {
        let a = csr::power_law(500, 10, 11);
        let shape = SparseShape::from_csr(SparseOp::Spmv, &a, DType::F32);
        let name = shape.name();
        assert_eq!(name.chars().next(), Some('s'));
        let parsed = SparseShape::parse_body(&name[1..], DType::F32).expect("parses");
        assert_eq!(parsed, shape);
    }

    #[test]
    fn parse_body_rejects_malformed_names() {
        for bad in [
            "nonsense",
            "spmv_r10",
            "spmv_r10_z20_m1000_c0_x2_b3",
            "spmv_r10_z20_m1000_c0_x2_b3_d100_extra",
            "spmv_z20_r10_m1000_c0_x2_b3_d100",
        ] {
            assert_eq!(SparseShape::parse_body(bad, DType::F32), None, "{bad}");
        }
    }

    #[test]
    fn all_ops_parse() {
        for op in SparseOp::ALL {
            let a = csr::banded(100, 3, 5);
            let shape = SparseShape::from_csr(op, &a, DType::F64);
            let name = shape.name();
            assert!(name.starts_with('d'));
            assert_eq!(SparseShape::parse_body(&name[1..], DType::F64), Some(shape));
        }
    }

    #[test]
    fn features_reflect_structure() {
        let band = SparseShape::from_csr(SparseOp::Spmv, &csr::banded(400, 3, 1), DType::F32);
        let scat =
            SparseShape::from_csr(SparseOp::Spmv, &csr::random_uniform(400, 7, 1), DType::F32);
        let skew = SparseShape::from_csr(SparseOp::Spmv, &csr::power_law(400, 7, 1), DType::F32);
        let block = SparseShape::from_csr(SparseOp::Spmv, &csr::blocked(400, 4, 2, 1), DType::F32);
        assert!(band.bandwidth <= 3);
        assert!(scat.bandwidth > 100, "scatter spans the matrix");
        assert!(skew.row_cv() > 2.0 * scat.row_cv(), "power-law rows vary");
        assert!(
            block.block_density() > 2.0 * scat.block_density(),
            "blocked structure is denser per block: {} vs {}",
            block.block_density(),
            scat.block_density()
        );
    }

    #[test]
    fn random_shapes_are_internally_consistent() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..500 {
            let s = random_sparse_shape(&mut rng, &[DType::F32, DType::F64]);
            assert!(s.rows >= 256);
            assert!(s.row_max as f64 >= s.row_mean().floor());
            assert!(s.row_max <= s.rows);
            assert!(s.bandwidth < s.rows);
            assert!(s.block_density_milli >= 62 && s.block_density_milli <= 1000);
        }
    }
}
