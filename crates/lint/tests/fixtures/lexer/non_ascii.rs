//! Non-ASCII source text: identifiers, a raw identifier, char and string
//! literals, and comments outside ASCII. Rust has accepted non-ASCII
//! identifiers since 1.53, so the lexer must keep each one whole; the
//! hazard names in the strings below stay data.

/// Geometric decay: ρ ∈ (0, 1) applied `steps` times.
pub fn decay(ρ: f64, steps: u32) -> f64 {
    let mut acc = 1.0;
    for _ in 0..steps {
        acc *= ρ;
    }
    acc
}

/// Labels that name hazards only inside string literals.
pub fn labels() -> [&'static str; 2] {
    let r#σ = "σ — not Instant::now() or thread::spawn";
    let größe = "HashMap → SystemTime";
    [r#σ, größe]
}

/// A non-ASCII char literal.
pub fn arrow() -> char {
    '→'
}
