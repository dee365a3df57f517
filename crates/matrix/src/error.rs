use std::error::Error;
use std::fmt;

/// Errors produced while constructing or parsing sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MatrixError {
    /// A row or column coordinate exceeds the matrix dimensions.
    CoordinateOutOfBounds {
        /// Row index of the offending entry.
        row: usize,
        /// Column index of the offending entry.
        col: usize,
        /// Matrix row count.
        rows: usize,
        /// Matrix column count.
        cols: usize,
    },
    /// A vector length does not match the matrix dimension it multiplies.
    DimensionMismatch {
        /// Length that was expected (the matrix dimension).
        expected: usize,
        /// Length that was provided.
        actual: usize,
    },
    /// The CSR arrays are inconsistent (wrong lengths or non-monotone
    /// `row_ptr`).
    MalformedCsr(String),
    /// A Matrix Market stream could not be parsed.
    Parse {
        /// 1-based line number where parsing failed.
        line: usize,
        /// Description of the failure.
        message: String,
    },
    /// An I/O error while reading or writing a Matrix Market stream.
    Io(String),
    /// A Matrix Market size line declared more rows or columns than
    /// [`crate::mmio::MAX_DIM`].
    TooLarge {
        /// Declared row count.
        rows: usize,
        /// Declared column count.
        cols: usize,
        /// The accepted maximum per dimension.
        max: usize,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::CoordinateOutOfBounds { row, col, rows, cols } => {
                write!(f, "coordinate ({row}, {col}) is outside a {rows}x{cols} matrix")
            }
            MatrixError::DimensionMismatch { expected, actual } => {
                write!(f, "vector length {actual} does not match dimension {expected}")
            }
            MatrixError::MalformedCsr(msg) => write!(f, "malformed CSR arrays: {msg}"),
            MatrixError::Parse { line, message } => {
                write!(f, "matrix market parse error at line {line}: {message}")
            }
            MatrixError::Io(msg) => write!(f, "i/o error: {msg}"),
            MatrixError::TooLarge { rows, cols, max } => {
                write!(f, "declared {rows}x{cols} matrix exceeds {max} rows or columns")
            }
        }
    }
}

impl Error for MatrixError {}

impl From<std::io::Error> for MatrixError {
    fn from(err: std::io::Error) -> Self {
        MatrixError::Io(err.to_string())
    }
}
