//! Property tests of the `DeltaArtifact` JSON codec.
//!
//! Randomised inputs come from hand-rolled seed loops over the in-tree
//! [`tasfar_nn::rng::Rng`], as in `property.rs`: each case derives every
//! input from a case-indexed stream, so a failure reproduces from the case
//! number in its message. The reference for what the decoder must accept
//! is a test-local oracle: [`Json::parse`] plus field lookups, the tree
//! decode the streaming one replaced, with payload strings decoded and
//! `check` verified by the base64 and FNV-1a reference in this file, not by
//! the crate's own codec.

use tasfar_nn::adapter::{enable_adapters, AdapterConfig};
use tasfar_nn::init::Init;
use tasfar_nn::json::{FromJson, Json, JsonError, ToJson};
use tasfar_nn::layers::{Dense, Relu, Sequential};
use tasfar_nn::rng::Rng;
use tasfar_nn::spec::{DeltaApplyError, DeltaArtifact};

/// Values a decoder gets wrong first: signed zeros, subnormals, the
/// extremes of the finite range, and integral values (which the writer
/// prints with a trailing `.0`).
const SPECIAL: [f64; 16] = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-310,
    2.225_073_858_507_201e-308, // the largest subnormal
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    1.0,
    -7.0,
    42.0,
    9_007_199_254_740_992.0,
    1e22,
    0.1,
    -1e-300,
];

/// Integer literals the writer never emits but the tree decode accepts:
/// past 2^53, `u64::MAX`, one past it, leading zeros, a negative zero.
const INTEGER_LITERALS: [&str; 8] = [
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "123456789012345678901234567890",
    "0",
    "-0",
    "007",
    "-12",
];

fn value(g: &mut Rng) -> f64 {
    match g.below(4) {
        0 => SPECIAL[g.below(SPECIAL.len())],
        1 => loop {
            // Any finite bit pattern: every exponent, subnormals included.
            let v = f64::from_bits(g.u64());
            if v.is_finite() {
                break v;
            }
        },
        2 => g.gaussian(0.0, 1.0),
        _ => g.gaussian(0.0, 1e3).round(),
    }
}

/// A random artifact: up to `tensors - 1` tensors of under `dim` rows and
/// columns, empty and one-element ones included.
fn sized_artifact(g: &mut Rng, tensors: usize, dim: usize) -> DeltaArtifact {
    let shapes: Vec<(usize, usize)> = (0..g.below(tensors))
        .map(|_| (g.below(dim), g.below(dim)))
        .collect();
    let values = shapes
        .iter()
        .map(|&(r, c)| (0..r * c).map(|_| value(g)).collect())
        .collect();
    DeltaArtifact {
        rank: g.below(65),
        alpha: value(g),
        shapes,
        values,
    }
}

fn random_artifact(g: &mut Rng) -> DeltaArtifact {
    sized_artifact(g, 6, 5)
}

fn same_bits(a: &DeltaArtifact, b: &DeltaArtifact) -> bool {
    a.rank == b.rank
        && a.alpha.to_bits() == b.alpha.to_bits()
        && a.shapes == b.shapes
        && a.values.len() == b.values.len()
        && a.values.iter().zip(&b.values).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

// ----- reference codec ------------------------------------------------------

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// RFC 4648 base64 with `=` padding, one 3-byte group at a time.
fn base64(bytes: &[u8]) -> String {
    let mut out = String::new();
    for group in bytes.chunks(3) {
        let mut word = 0u32;
        for i in 0..3 {
            word = word << 8 | u32::from(group.get(i).copied().unwrap_or(0));
        }
        for k in 0..4 {
            if k <= group.len() {
                out.push(char::from(ALPHABET[(word >> (18 - 6 * k)) as usize & 63]));
            } else {
                out.push('=');
            }
        }
    }
    out
}

/// The inverse of [`base64`]: `None` for a length that is not whole quads,
/// a byte outside the alphabet, padding anywhere but at the end of the
/// last quad or more than two `=`, and padding that hides set bits.
fn unbase64(text: &str) -> Option<Vec<u8>> {
    let s = text.as_bytes();
    if !s.len().is_multiple_of(4) {
        return None;
    }
    let quads = s.len() / 4;
    let mut out = Vec::new();
    for (q, quad) in s.chunks(4).enumerate() {
        let pad = quad.iter().rev().take_while(|&&b| b == b'=').count();
        if pad > 2 || (pad > 0 && q + 1 != quads) {
            return None;
        }
        let mut word = 0u32;
        for &b in &quad[..4 - pad] {
            word = word << 6 | ALPHABET.iter().position(|&a| a == b)? as u32;
        }
        word <<= 6 * pad;
        if word & ((1 << (8 * pad)) - 1) != 0 {
            return None;
        }
        out.extend_from_slice(&word.to_be_bytes()[1..4 - pad]);
    }
    Some(out)
}

/// A payload string: the words' little-endian bytes in base64.
fn payload_of_bits(bits: &[u64]) -> String {
    let bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
    base64(&bytes)
}

fn payload(values: &[f64]) -> String {
    payload_of_bits(&values.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
}

/// The inverse of [`payload`]; rejects what `from_json` must reject.
fn reference_payload(text: &str) -> Result<Vec<f64>, JsonError> {
    let bytes = unbase64(text).ok_or_else(|| JsonError::new("not canonical base64"))?;
    if !bytes.len().is_multiple_of(8) {
        return Err(JsonError::new("not whole f64s"));
    }
    let values: Vec<f64> = bytes
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
        .collect();
    match values.iter().all(|v| v.is_finite()) {
        true => Ok(values),
        false => Err(JsonError::new("non-finite value")),
    }
}

/// The documented `check`: 64-bit FNV-1a folded over 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The words `check` folds, in order, with the values given as bits.
fn check_of(rank: usize, alpha: f64, shapes: &[(usize, usize)], bits: &[u64]) -> u64 {
    let header = [rank as u64, alpha.to_bits()].into_iter();
    let shapes = shapes.iter().flat_map(|&(r, c)| [r as u64, c as u64]);
    fnv1a(header.chain(shapes).chain(bits.iter().copied()))
}

fn reference_check(a: &DeltaArtifact) -> u64 {
    let bits: Vec<u64> = a.values.iter().flatten().map(|v| v.to_bits()).collect();
    check_of(a.rank, a.alpha, &a.shapes, &bits)
}

/// The artifact a parsed document spells, with payload strings decoded by
/// the reference codec, and whether any `values` entry was one.
fn tree_artifact(v: &Json) -> Result<(DeltaArtifact, bool), JsonError> {
    let shapes = v
        .field("shapes")?
        .as_arr()?
        .iter()
        .map(|s| match s.as_arr()? {
            [r, c] => Ok((r.as_usize()?, c.as_usize()?)),
            _ => Err(JsonError::new("each shape must be [rows, cols]")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut strings = false;
    let values = v
        .field("values")?
        .as_arr()?
        .iter()
        .map(|t| match t {
            Json::Str(s) => {
                strings = true;
                reference_payload(s)
            }
            other => Vec::<f64>::from_json_value(other),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let a = DeltaArtifact {
        rank: v.field("rank")?.as_usize()?,
        alpha: v.field("alpha")?.as_f64()?,
        shapes,
        values,
    };
    Ok((a, strings))
}

/// The tree decode: parse the whole document, then look fields up, with
/// `check` required unless every `values` entry is a decimal array (and
/// there is one). It does not see how `alpha` is spelled; every document
/// compared against it writes `alpha` as `to_json` does, and the spelling
/// rule has its own test.
fn oracle(text: &str) -> Result<DeltaArtifact, JsonError> {
    let v = Json::parse(text)?;
    let (a, strings) = tree_artifact(&v)?;
    match v.get("check") {
        Some(c) => {
            let hex = c.as_str()?;
            let lower =
                hex.len() == 16 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
            match u64::from_str_radix(hex, 16) {
                Ok(want) if lower && want == reference_check(&a) => Ok(a),
                _ => Err(JsonError::new("wrong check")),
            }
        }
        None if strings || a.values.is_empty() => Err(JsonError::new("missing check")),
        None => Ok(a),
    }
}

/// Decodes `text` with both decoders and requires the same outcome: equal
/// bits, or an error from both. Returns whether it decoded.
fn assert_matches_oracle(text: &str, what: &str) -> bool {
    match (DeltaArtifact::from_json(text), oracle(text)) {
        (Ok(got), Ok(want)) => {
            assert!(same_bits(&got, &want), "{what}: decodes differ\n{text}");
            true
        }
        (Err(_), Err(_)) => false,
        (got, want) => panic!("{what}: decoder {got:?}, oracle {want:?}\n{text}"),
    }
}

/// The format earlier builds wrote: every `values` entry a decimal array.
fn legacy_json(a: &DeltaArtifact) -> String {
    Json::obj(vec![
        ("rank", Json::from(a.rank)),
        ("alpha", Json::Num(a.alpha)),
        (
            "shapes",
            Json::Arr(
                a.shapes
                    .iter()
                    .map(|&(r, c)| Json::Arr(vec![Json::from(r), Json::from(c)]))
                    .collect(),
            ),
        ),
        ("values", a.values.to_json_value()),
    ])
    .to_string()
}

/// Writes documents token by token, with random whitespace around every
/// token when `spaced`.
struct Writer<'g> {
    g: &'g mut Rng,
    spaced: bool,
}

impl Writer<'_> {
    fn ws(&mut self) -> &'static str {
        const WS: [&str; 6] = ["", " ", "\n", "\t", "  ", "\r\n"];
        if self.spaced {
            WS[self.g.below(WS.len())]
        } else {
            ""
        }
    }

    fn array(&mut self, items: &[String]) -> String {
        let mut s = String::from("[");
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                s.push_str(self.ws());
                s.push(',');
            }
            s.push_str(self.ws());
            s.push_str(item);
        }
        s.push_str(self.ws());
        s.push(']');
        s
    }

    fn object(&mut self, members: &[(String, String)]) -> String {
        let mut s = String::from(self.ws());
        s.push('{');
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                s.push_str(self.ws());
                s.push(',');
            }
            s.push_str(self.ws());
            s.push_str(&format!("\"{key}\""));
            s.push_str(self.ws());
            s.push(':');
            s.push_str(self.ws());
            s.push_str(value);
        }
        s.push_str(self.ws());
        s.push('}');
        s.push_str(self.ws());
        s
    }
}

fn num(v: f64) -> String {
    Json::Num(v).to_string()
}

#[test]
fn decode_inverts_encode_bit_for_bit() {
    for case in 0..300u64 {
        let mut g = Rng::new(0xDE17A ^ case);
        let a = random_artifact(&mut g);
        let doc = a.to_json();
        let back =
            DeltaArtifact::from_json(&doc).unwrap_or_else(|e| panic!("case {case}: {e}\n{doc}"));
        assert!(
            same_bits(&a, &back),
            "case {case}: {a:?} came back as {back:?}"
        );
        // The reference codec reads what the writer wrote, and the writer
        // wrote what the reference codec would.
        let reference = oracle(&doc).unwrap_or_else(|e| panic!("case {case}: oracle {e}\n{doc}"));
        assert!(same_bits(&a, &reference), "case {case}: oracle differs");
        let tree = Json::parse(&doc).unwrap();
        let written: Vec<&str> = tree
            .field("values")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|t| t.as_str().unwrap())
            .collect();
        let expected: Vec<String> = a.values.iter().map(|v| payload(v)).collect();
        assert_eq!(written, expected, "case {case}: payload strings");
        let check = tree.field("check").unwrap().as_str().unwrap();
        assert_eq!(
            check,
            format!("{:016x}", reference_check(&a)),
            "case {case}"
        );
    }
}

#[test]
fn payload_tails_round_trip_at_every_length() {
    // 0–7 values cover every tail: none, one value (one `=`), two values
    // (two `=`), after zero, one and two whole blocks.
    let mut g = Rng::new(0x7A11);
    for n in 0..8 {
        let values: Vec<f64> = (0..n).map(|_| value(&mut g)).collect();
        let a = DeltaArtifact {
            rank: 1,
            alpha: 2.0,
            shapes: vec![(1, n)],
            values: vec![values],
        };
        let doc = a.to_json();
        let text = payload(&a.values[0]);
        let padding = text.bytes().rev().take_while(|&b| b == b'=').count();
        assert_eq!(padding, [0, 1, 2][n % 3], "{n} values: {text}");
        let back = DeltaArtifact::from_json(&doc).unwrap_or_else(|e| panic!("{n}: {e}"));
        assert!(same_bits(&a, &back), "{n} values");
    }
}

#[test]
fn rewritten_documents_decode_like_the_tree_oracle() {
    let mut decoded = 0;
    for case in 0..400u64 {
        let mut g = Rng::new(0x0DAC1E ^ case);
        let a = random_artifact(&mut g);
        let alt = random_artifact(&mut g);
        let spaced = g.bernoulli(0.5);
        let integers = g.bernoulli(0.5);
        // Half the documents are all decimal (the legacy format); the rest
        // write each tensor as a payload string or a decimal array.
        let payload_share = if g.bernoulli(0.5) {
            0.0
        } else {
            g.uniform(0.0, 1.0)
        };
        let mut w = Writer { g: &mut g, spaced };

        // Shapes sometimes as integral floats, which `as_usize` accepts.
        let shape_text = |w: &mut Writer<'_>, n: usize| match w.g.below(4) {
            0 => format!("{n}.0"),
            1 => format!("{n}e0"),
            _ => n.to_string(),
        };
        let shapes: Vec<String> = a
            .shapes
            .iter()
            .map(|&(r, c)| {
                let pair = [shape_text(&mut w, r), shape_text(&mut w, c)];
                w.array(&pair)
            })
            .collect();
        let mut strings = false;
        let values: Vec<String> = a
            .values
            .iter()
            .map(|vs| {
                if w.g.bernoulli(payload_share) {
                    strings = true;
                    return format!("\"{}\"", payload(vs));
                }
                let items: Vec<String> = vs
                    .iter()
                    .map(|&v| {
                        if integers && w.g.bernoulli(0.3) {
                            INTEGER_LITERALS[w.g.below(INTEGER_LITERALS.len())].to_string()
                        } else {
                            num(v)
                        }
                    })
                    .collect();
                w.array(&items)
            })
            .collect();
        let mut members = vec![
            ("rank".to_string(), a.rank.to_string()),
            ("alpha".to_string(), num(a.alpha)),
            ("shapes".to_string(), w.array(&shapes)),
            ("values".to_string(), w.array(&values)),
        ];
        // `check` where it is required, and now and then where it is not;
        // one in ten is wrong. It covers the bits the decoder reads, which
        // an integer literal may have rounded.
        if strings || a.values.is_empty() || w.g.bernoulli(0.3) {
            let mut check = check_of_members(&members);
            if w.g.bernoulli(0.1) {
                check ^= 1 << w.g.below(64);
            }
            members.push(("check".to_string(), format!("\"{check:016x}\"")));
        }
        if w.g.bernoulli(0.5) {
            w.g.shuffle(&mut members);
        }
        if w.g.bernoulli(0.3) {
            let extra = [
                r#"{"a": [1, 2.5, {"b": null}], "c": "x\"y"}"#,
                "\"note\"",
                "true",
                "[1e5, -3, []]",
                "null",
            ];
            let at = w.g.below(members.len() + 1);
            let value = extra[w.g.below(extra.len())].to_string();
            members.insert(at, ("extra".to_string(), value));
        }
        if w.g.bernoulli(0.3) {
            // A second occurrence of one key, before or after the first,
            // holding either another artifact's value or a wrong type.
            let (key, value) = match w.g.below(8) {
                0 => ("rank", alt.rank.to_string()),
                1 => ("alpha", num(alt.alpha)),
                2 => ("shapes", field_json(&alt, "shapes")),
                3 => ("values", field_json(&alt, "values")),
                4 => ("check", format!("\"{:016x}\"", reference_check(&alt))),
                5 => ("check", "16".to_string()),
                6 => ("rank", "\"four\"".to_string()),
                _ => ("values", "[[true]]".to_string()),
            };
            let at = w.g.below(members.len() + 1);
            members.insert(at, (key.to_string(), value));
        }
        let doc = w.object(&members);
        if assert_matches_oracle(&doc, &format!("case {case}")) {
            decoded += 1;
        }
    }
    // Most rewrites keep the document valid; a wrong check, a wrong-typed
    // repeat placed first, or a tensor-less legacy document must fail.
    // Both outcomes are exercised.
    assert!((300..400).contains(&decoded), "{decoded} of 400 decoded");
}

/// The `check` of the document the members spell, over the bits the
/// decoder reads (an integer literal may round).
fn check_of_members(members: &[(String, String)]) -> u64 {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let tree = Json::parse(&format!("{{{}}}", body.join(","))).unwrap();
    reference_check(&tree_artifact(&tree).unwrap().0)
}

/// The compact JSON of one field of an artifact, in the legacy format.
fn field_json(a: &DeltaArtifact, key: &str) -> String {
    Json::parse(&legacy_json(a))
        .unwrap()
        .field(key)
        .unwrap()
        .to_string()
}

#[test]
fn truncations_and_byte_flips_never_panic() {
    // Legacy decimal documents carry no `check`, so a flipped byte may
    // still decode; it must decode as the oracle does. (A written artifact
    // has no such byte: see the exhaustive test below.) Printable ASCII
    // plus the whitespace bytes: replacing one byte of an ASCII document
    // with any of these keeps it valid UTF-8.
    let replacements: Vec<u8> = (0x20u8..0x7f).chain([b'\n', b'\t', b'\r']).collect();
    for case in 0..12u64 {
        let mut g = Rng::new(0x7C0E ^ case);
        let doc = legacy_json(&random_artifact(&mut g));
        for end in 0..doc.len() {
            assert!(
                DeltaArtifact::from_json(&doc[..end]).is_err(),
                "case {case}: the {end}-byte prefix of a document must not decode"
            );
        }
        for flip in 0..200 {
            let mut bytes = doc.clone().into_bytes();
            let at = g.below(bytes.len());
            bytes[at] = replacements[g.below(replacements.len())];
            let text = String::from_utf8(bytes).expect("ASCII in, ASCII out");
            assert_matches_oracle(&text, &format!("case {case} flip {flip} at byte {at}"));
        }
    }
}

#[test]
fn every_truncation_and_byte_replacement_of_a_written_artifact_is_an_error() {
    let replacements: Vec<u8> = (0x20u8..0x7f).chain([b'\n', b'\t', b'\r']).collect();
    // An integral alpha (`16.0`, which `16e0` would spell too), a long
    // shortest-round-trip alpha (a last digit off by one can round to the
    // same bits), an empty and a one-element tensor, and no tensor at all;
    // then random small artifacts.
    let mut artifacts = vec![
        DeltaArtifact {
            rank: 2,
            alpha: 16.0,
            shapes: vec![(1, 1), (0, 3), (2, 2)],
            values: vec![vec![-0.0], vec![], vec![f64::MAX, 5e-324, -1.5, 0.1]],
        },
        DeltaArtifact {
            rank: 10,
            alpha: 0.1 + 0.2,
            shapes: vec![(1, 2)],
            values: vec![vec![f64::MIN, 1e-310]],
        },
        DeltaArtifact {
            rank: 0,
            alpha: 1.0,
            shapes: vec![],
            values: vec![],
        },
    ];
    for case in 0..6u64 {
        artifacts.push(sized_artifact(&mut Rng::new(0xB17F ^ case), 4, 4));
    }
    for (case, a) in artifacts.iter().enumerate() {
        let doc = a.to_json();
        for end in 0..doc.len() {
            assert!(
                DeltaArtifact::from_json(&doc[..end]).is_err(),
                "case {case}: the {end}-byte prefix decoded\n{doc}"
            );
        }
        for at in 0..doc.len() {
            for &b in &replacements {
                if b == doc.as_bytes()[at] {
                    continue;
                }
                let mut bytes = doc.clone().into_bytes();
                bytes[at] = b;
                let text = String::from_utf8(bytes).expect("ASCII in, ASCII out");
                if let Ok(got) = DeltaArtifact::from_json(&text) {
                    let bits = if same_bits(&got, a) {
                        "the same"
                    } else {
                        "other"
                    };
                    panic!(
                        "case {case}: byte {at} replaced by {:?} decoded to {bits} bits\n{text}",
                        char::from(b)
                    );
                }
            }
        }
    }
}

/// A one-tensor document with the given value bits, written by the
/// reference codec under a correct `check`.
fn document_of_bits(bits: &[u64]) -> String {
    let shapes = [(1, bits.len())];
    format!(
        r#"{{"rank":1,"alpha":2.0,"shapes":[[1,{}]],"values":["{}"],"check":"{:016x}"}}"#,
        bits.len(),
        payload_of_bits(bits),
        check_of(1, 2.0, &shapes, bits)
    )
}

#[test]
fn non_finite_payload_words_are_rejected() {
    let finite = document_of_bits(&[1.0f64.to_bits(), 2.0f64.to_bits()]);
    assert!(DeltaArtifact::from_json(&finite).is_ok(), "{finite}");
    let non_finite = [
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        f64::NAN.to_bits(),
        (-f64::NAN).to_bits(),
        0x7FF0_0000_0000_0001, // a signalling NaN
        0xFFFF_FFFF_FFFF_FFFF,
    ];
    // Each bad word in each slot of a block and of both tails.
    for bad in non_finite {
        for len in 1..=5 {
            for at in 0..len {
                let mut bits = vec![0.5f64.to_bits(); len];
                bits[at] = bad;
                let doc = document_of_bits(&bits);
                assert!(
                    DeltaArtifact::from_json(&doc).is_err(),
                    "{bad:#018x} at {at} of {len} decoded\n{doc}"
                );
            }
        }
    }
}

#[test]
fn malformed_payloads_are_rejected() {
    let value = 0.75f64.to_bits();
    let good = payload_of_bits(&[value]);
    let doc = |text: &str| {
        format!(
            r#"{{"rank":1,"alpha":2.0,"shapes":[[1,1]],"values":["{text}"],"check":"{:016x}"}}"#,
            check_of(1, 2.0, &[(1, 1)], &[value])
        )
    };
    assert!(DeltaArtifact::from_json(&doc(&good)).is_ok());
    let mut bad = vec![
        good.replace('=', ""),            // missing padding
        format!("{good}="),               // excess padding
        good.replacen('A', "-", 1),       // URL-safe alphabet
        good.replacen('A', "\\u0041", 1), // an escape that spells `A`
        good[..8].to_string(),            // whole quads of too few bytes
        String::from("===="),
    ];
    // The last real character of a one-value tail carries two unused bits;
    // setting either spells the same value non-canonically.
    let last = good.len() - 2;
    let at = ALPHABET
        .iter()
        .position(|&b| b == good.as_bytes()[last])
        .unwrap();
    for flip in [1, 2] {
        let mut s = good.clone().into_bytes();
        s[last] = ALPHABET[at ^ flip];
        bad.push(String::from_utf8(s).unwrap());
    }
    for text in &bad {
        assert!(
            DeltaArtifact::from_json(&doc(text)).is_err(),
            "payload {text:?} decoded"
        );
    }
    // Json::parse reads the escaped payload as the good one; only the
    // decoder's no-escape rule rejects it.
    assert_eq!(good, "AAAAAAAA6D8=");
    assert!(oracle(&doc(&good.replacen('A', "\\u0041", 1))).is_ok());
}

#[test]
fn check_is_required_once_a_payload_is_written_and_verified_when_present() {
    let a = DeltaArtifact {
        rank: 3,
        alpha: 0.5,
        shapes: vec![(1, 2), (2, 1)],
        values: vec![vec![1.0, -2.0], vec![0.25, 8.0]],
    };
    let written = a.to_json();
    let check = format!(r#","check":"{:016x}""#, reference_check(&a));
    assert!(written.ends_with(&format!("{check}}}")), "{written}");
    let unchecked = written.replace(&check, "");
    assert!(DeltaArtifact::from_json(&unchecked).is_err(), "{unchecked}");
    // A legacy document needs none, but one it carries must match.
    let legacy = legacy_json(&a);
    assert!(DeltaArtifact::from_json(&legacy).is_ok());
    let with_check = format!("{}{check}}}", &legacy[..legacy.len() - 1]);
    assert!(same_bits(
        &DeltaArtifact::from_json(&with_check).unwrap(),
        &a
    ));
    let wrong = with_check.replace(&format!("{:016x}", reference_check(&a)), "0000000000000000");
    assert!(DeltaArtifact::from_json(&wrong).is_err(), "{wrong}");
    // Upper-case or short hex is malformed even when it names the hash.
    for spelled in [
        format!("{:016X}", reference_check(&a)),
        format!("{:x}", reference_check(&a) >> 4),
    ] {
        let doc = written.replace(&format!("{:016x}", reference_check(&a)), &spelled);
        assert!(DeltaArtifact::from_json(&doc).is_err(), "{doc}");
    }
}

#[test]
fn alpha_is_spelled_as_written_when_checked() {
    let a = DeltaArtifact {
        rank: 2,
        alpha: 16.0,
        shapes: vec![(1, 1)],
        values: vec![vec![3.0]],
    };
    let written = a.to_json();
    assert!(written.contains(r#""alpha":16.0,"#), "{written}");
    for spelled in ["16", "16e0", "1.6e1", "16.00", "016.0"] {
        let doc = written.replace("16.0", spelled);
        assert!(DeltaArtifact::from_json(&doc).is_err(), "{doc}");
    }
    // Without a check (the legacy format) any spelling of the value reads.
    for spelled in ["16", "16e0", "1.6e1", "16.00"] {
        let doc = legacy_json(&a).replace("16.0", spelled);
        let back = DeltaArtifact::from_json(&doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        assert!(same_bits(&a, &back), "{doc}");
    }
}

/// Written by a build before payload strings: decimal `values`, no `check`.
const LEGACY_DOCUMENT: &str = concat!(
    r#"{"rank":2,"alpha":16.0,"shapes":[[2,2],[1,3],[0,4]],"values":[[-0.0,0.00"#,
    "000000000000000000000000000000000000000000000000000000000000000000000000",
    "000000000000000000000000000000000000000000000000000000000000000000000000",
    "000000000000000000000000000000000000000000000000000000000000000000000000",
    "000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000005,1797693134862315700000000000000000000",
    "000000000000000000000000000000000000000000000000000000000000000000000000",
    "000000000000000000000000000000000000000000000000000000000000000000000000",
    "000000000000000000000000000000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000000000000000000000000.0,0.1],[-2.5,0.",
    "000000000000000000000000000000000000000000000000000000000000000000000000",
    "000000000000000000000000000000000000000000000000000000000000000000000000",
    "000000000000000000000000000000000000000000000000000000000000000000000000",
    "000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000001,-123456.789],[]]}",
);

#[test]
fn a_legacy_document_decodes_to_pinned_bits() {
    let a = DeltaArtifact::from_json(LEGACY_DOCUMENT).unwrap();
    assert_eq!((a.rank, a.alpha.to_bits()), (2, 0x4030_0000_0000_0000));
    assert_eq!(a.shapes, vec![(2, 2), (1, 3), (0, 4)]);
    let bits: Vec<Vec<u64>> = a
        .values
        .iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect();
    assert_eq!(
        bits,
        vec![
            vec![
                0x8000_0000_0000_0000,
                0x0000_0000_0000_0001,
                0x7FEF_FFFF_FFFF_FFFF,
                0x3FB9_9999_9999_999A,
            ],
            vec![
                0xC004_0000_0000_0000,
                0x0000_1268_8B70_E62B,
                0xC0FE_240C_9FBE_76C9,
            ],
            vec![],
        ]
    );
    // The writer's own legacy spelling, and the oracle, agree.
    assert_eq!(legacy_json(&a), LEGACY_DOCUMENT);
    assert_matches_oracle(LEGACY_DOCUMENT, "legacy document");
}

#[test]
fn a_huge_shape_claim_reserves_only_what_the_input_holds() {
    for (rows, cols) in [(1usize << 20, 1usize << 20), (1 << 32, 1 << 32)] {
        let doc = format!(
            r#"{{"rank":2,"alpha":1.0,"shapes":[[{rows},{cols}]],"values":[[1.0,2.0,3.0]]}}"#
        );
        let a = DeltaArtifact::from_json(&doc).expect("a count mismatch is check's to report");
        assert_eq!(a.shapes, vec![(rows, cols)]);
        assert_eq!(a.values, vec![vec![1.0, 2.0, 3.0]]);
        assert!(
            a.values[0].capacity() <= doc.len(),
            "a {rows}x{cols} claim reserved {} slots for a {}-byte document",
            a.values[0].capacity(),
            doc.len()
        );
        // A payload string is sized from its own length.
        let bits = [1.0f64, 2.0, 3.0].map(f64::to_bits);
        let doc = format!(
            r#"{{"rank":2,"alpha":1.0,"shapes":[[{rows},{cols}]],"values":["{}"],"check":"{:016x}"}}"#,
            payload_of_bits(&bits),
            check_of(2, 1.0, &[(rows, cols)], &bits)
        );
        let a = DeltaArtifact::from_json(&doc).expect("a count mismatch is check's to report");
        assert_eq!(a.values, vec![vec![1.0, 2.0, 3.0]]);
        assert_eq!(a.values[0].capacity(), 3);
    }
}

#[test]
fn overflowing_literals_are_rejected() {
    let doc =
        |v: &str| format!(r#"{{"rank":2,"alpha":1.0,"shapes":[[1,2]],"values":[[{v},0.5]]}}"#);
    let huge_integer = format!("1{}", "0".repeat(400));
    for bad in ["1e999", "-1e999", "1e309", "2e308", huge_integer.as_str()] {
        assert!(
            DeltaArtifact::from_json(&doc(bad)).is_err(),
            "{bad} must not decode"
        );
        assert!(Json::parse(bad).is_err(), "{bad} must not parse");
    }
    // Underflow is not an error: it rounds to a (signed) zero.
    let a = DeltaArtifact::from_json(&doc("-1e-999")).unwrap();
    assert_eq!(a.values[0][0].to_bits(), (-0.0f64).to_bits());
    assert_matches_oracle(&doc("-1e-999"), "underflow");
}

#[test]
fn check_reports_an_overflowing_shape_as_corrupt() {
    let mut rng = Rng::new(3);
    let mut model = Sequential::new()
        .add(Dense::new(3, 4, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dense::new(4, 1, Init::HeNormal, &mut rng));
    enable_adapters(&mut model, &AdapterConfig::rank(2), &mut rng);
    let mut a = DeltaArtifact::capture(&mut model, &AdapterConfig::rank(2));
    let n = a.shapes.len();
    a.shapes.push((1 << 32, 1 << 32));
    match a.check(&mut model) {
        Err(DeltaApplyError::Corrupt {
            index, found_len, ..
        }) => {
            assert_eq!((index, found_len), (n, 0));
        }
        other => panic!("expected Corrupt at tensor {n}, got {other:?}"),
    }
}
