// R012 fixture (clean): every element-pass body is #[inline(always)],
// whatever sits between the attribute and the `fn`; a `run` outside an
// ElementPass impl, a helper inside one and test code are not bodies
// the dispatcher runs.
use cap_tensor::ElementPass;

pub struct Scale<'a> {
    x: &'a mut [f32],
    k: f32,
}

impl ElementPass for Scale<'_> {
    #[inline(always)]
    fn run(self) {
        for v in self.x {
            *v *= self.k;
        }
    }
}

pub struct Negate<'a>(&'a mut [f32]);

impl cap_tensor::ElementPass for Negate<'_> {
    #[inline(always)]
    /// Documented after the attribute.
    #[allow(clippy::needless_range_loop)]
    fn run(self) {
        fn flip(v: f32) -> f32 {
            -v
        }
        for v in self.0 {
            *v = flip(*v);
        }
    }
}

pub struct Rows;

impl Rows {
    fn run(&self) {}
}

#[cfg(test)]
mod tests {
    struct Probe;

    impl cap_tensor::ElementPass for Probe {
        fn run(self) {}
    }
}
