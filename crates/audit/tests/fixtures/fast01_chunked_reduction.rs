//! Bad fixture: a chunked (reassociation-prone) reduction with no
//! reasoned allow (FAST01). The plain iterator sum below must stay
//! invisible — only the `chunks_exact` call site fires.

pub fn lane_sum(v: &[f64]) -> f64 {
    let mut total = 0.0;
    for c in v.chunks_exact(4) {
        total += c.iter().sum::<f64>();
    }
    total + v.iter().sum::<f64>()
}
