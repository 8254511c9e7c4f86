#![allow(clippy::expect_used, clippy::unwrap_used)] // test code

//! Certificate text from an untrusted source: every truncation of a
//! real certificate is rejected as `aud-malformed-certificate` (never a
//! panic, never a clean verdict), and the parser's error messages are
//! pinned byte for byte so a rewrite of the reader cannot drift them.

use eua_audit::audit_text;

const FIXTURE: &str = include_str!("fixtures/quickstart-eua-seed3.json");

/// The single message a malformed text is reported with.
fn malformed_message(text: &str) -> String {
    let report = audit_text("cut", text);
    let codes: Vec<&str> = report.codes().into_iter().collect();
    assert_eq!(
        codes,
        vec!["aud-malformed-certificate"],
        "a malformed text must yield exactly the malformed code:\n{}",
        report.render_text()
    );
    assert_eq!(report.diagnostics.len(), 1);
    report.diagnostics[0].message.clone()
}

/// Cuts at every char boundary in the first 4 KB, then at a fixed
/// stride, keep a debug `cargo test` cheap while still crossing every
/// section of the document.
#[test]
fn every_truncation_is_malformed_and_never_panics() {
    let body_end = FIXTURE.trim_end().len();
    let dense = (0..4096.min(body_end)).filter(|&i| FIXTURE.is_char_boundary(i));
    let sparse = (4096..body_end)
        .step_by(97)
        .filter(|&i| FIXTURE.is_char_boundary(i));
    let mut cuts = 0;
    for cut in dense.chain(sparse) {
        malformed_message(&FIXTURE[..cut]);
        cuts += 1;
    }
    assert!(cuts > 4096, "only {cuts} cuts checked");
}

/// The end of the first occurrence of `pat` in the fixture.
fn after(pat: &str) -> usize {
    FIXTURE.find(pat).expect("pattern in fixture") + pat.len()
}

#[test]
fn error_messages_are_pinned() {
    // Recorded from the reader these tests were written against.
    let cases: Vec<(String, &str)> = vec![
        (String::new(), "unexpected end of input"),
        (FIXTURE[..1].to_string(), "expected a key at byte 1"),
        (
            FIXTURE[..after("\"form")].to_string(),
            "unterminated string",
        ),
        (
            FIXTURE[..after("\"seed\": ")].to_string(),
            "unexpected end of input",
        ),
        (
            FIXTURE[..after("\"seed\": 3")].to_string(),
            "expected ',' or '}' at byte 65",
        ),
        (
            FIXTURE[..after("\"skip_infeasible\": fa")].to_string(),
            "malformed literal at byte 4009",
        ),
        (
            FIXTURE[..after("\"frequencies_mhz\": [\n    36,")].to_string(),
            "unexpected end of input",
        ),
        (
            FIXTURE.replace("\"seed\": 3", "\"seed\": 3.5"),
            "`seed` is not an unsigned integer: \"3.5\"",
        ),
        (
            FIXTURE.replace("\"seed\": 3", "\"seed\": 1e"),
            "malformed number \"1e\" at byte 64",
        ),
        (
            FIXTURE.replace("\"seed\": 3", "\"seed\": -"),
            "expected a number at byte 64",
        ),
        (
            FIXTURE.replace("\"policy\": \"eua\"", "\"policy\": \"e\\q\""),
            "unknown escape at byte 50",
        ),
        (
            FIXTURE.replace("\"policy\": \"eua\"", "\"policy\": \"\\u12\""),
            "malformed \\u escape \"12\\\",\"",
        ),
        (format!("{FIXTURE}x"), "trailing data at byte 52390"),
        ("{}".to_string(), "missing or non-string `format`"),
        ("[1,]".to_string(), "expected a number at byte 3"),
        ("{\"a\" 1}".to_string(), "expected ':' at byte 5"),
    ];
    for (text, want) in &cases {
        assert_eq!(
            malformed_message(text),
            format!("certificate does not parse: {want}"),
            "input {:.60?}",
            text
        );
    }
}

/// A document nested past the reader's depth cap is malformed, not a
/// stack overflow that takes the whole process down.
#[test]
fn deep_nesting_is_malformed_not_a_stack_overflow() {
    for open in ["[", "{\"k\":"] {
        let message = malformed_message(&open.repeat(100_000));
        assert!(
            message.starts_with("certificate does not parse: nested deeper than "),
            "{message}"
        );
    }
}
