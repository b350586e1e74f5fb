// R012 fixture: an element-pass body that is not #[inline(always)] may
// compile outside the frame `run_pass` builds for the pinned SIMD
// width, and only its speed shows it.
use cap_tensor::ElementPass;

pub struct Scale<'a> {
    x: &'a mut [f32],
    k: f32,
}

impl ElementPass for Scale<'_> {
    fn run(self) { //~ R012 @8..11
        for v in self.x {
            *v *= self.k;
        }
    }
}

pub struct Negate<'a>(&'a mut [f32]);

impl cap_tensor::ElementPass for Negate<'_> {
    /// A hint is not enough: LLVM may still keep the body out of line.
    #[inline]
    fn run(self) { //~ R012 @8..11
        for v in self.0 {
            *v = -*v;
        }
    }
}

pub struct Copy<'a, T> {
    dst: &'a mut [T],
    src: &'a [T],
}

impl<'a, T> crate::simd::ElementPass
    for Copy<'a, T>
where
    T: Clone,
{
    #[inline(never)]
    pub fn run(self) { //~ R012 @12..15
        self.dst.clone_from_slice(self.src);
    }
}
