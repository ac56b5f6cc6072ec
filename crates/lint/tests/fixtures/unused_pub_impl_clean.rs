//! Fixture: a trait that its impl for another type names, and a type
//! that code outside its own impls names.

pub trait PathLoss {
    fn loss(&self, metres: f64) -> f64;
}

pub struct Friis;

impl PathLoss for Friis {
    fn loss(&self, metres: f64) -> f64 {
        metres
    }
}

fn model() -> Friis {
    Friis
}

pub fn corridor_loss(metres: f64) -> f64 {
    model().loss(metres)
}
