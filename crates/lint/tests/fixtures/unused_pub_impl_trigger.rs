//! Fixture: a public type that only its own impls name.

pub trait PathLoss {
    fn loss(&self, metres: f64) -> f64;
}

/// Named by its declaration, its own constructor and its trait impl.
pub struct LogModel {
    exponent: f64,
}

impl LogModel {
    pub fn with_exponent(exponent: f64) -> LogModel {
        LogModel { exponent }
    }
}

impl PathLoss for LogModel {
    fn loss(&self, metres: f64) -> f64 {
        self.exponent * metres
    }
}
