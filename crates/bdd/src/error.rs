use std::fmt;

/// Error type for the BDD package.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BddError {
    /// A variable index was not smaller than the manager's variable count.
    VariableOutOfRange {
        /// The offending variable index.
        variable: usize,
        /// Number of variables the manager was created with.
        num_vars: usize,
    },
    /// The manager has more variables than a dense truth table supports.
    TooManyVariablesForTable {
        /// Number of variables of the manager.
        num_vars: usize,
        /// Dense-table limit.
        max: usize,
    },
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::VariableOutOfRange { variable, num_vars } => {
                write!(f, "variable index {variable} out of range for a manager with {num_vars} variables")
            }
            BddError::TooManyVariablesForTable { num_vars, max } => {
                write!(f, "cannot build a dense truth table for {num_vars} variables (limit {max})")
            }
        }
    }
}

impl std::error::Error for BddError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = BddError::VariableOutOfRange { variable: 7, num_vars: 4 };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('4'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BddError>();
    }
}
