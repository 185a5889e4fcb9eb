//! Mutation fuzz of the scenario input path: every input fails with an
//! error, never with a panic, an abort or a silently wrapped value. Each
//! case makes one to three edits to a committed scenario or a fuzz case:
//! a number becomes an extreme value, a key is dropped or repeated, the
//! text is cut short or one byte is overwritten. Random text goes through
//! the same checks. A document that validates must round-trip through
//! `to_json`, and every run it describes must build a `Runner` and step
//! through its first 2 simulated milliseconds.

use app::Runner;
use bench::scenario::{catalog_path, load_dir, Scenario};
use metrics::json::Json;
use sim::rng::SimRng;
use sim::time::ms;
use std::panic::catch_unwind;

/// Walks from the root towards a random leaf: at each object it drops or
/// repeats a key half the time, and it replaces the first number it meets
/// with an extreme value.
fn edit_tree(v: &mut Json, rng: &mut SimRng) {
    match v {
        Json::Obj(fields) if !fields.is_empty() => {
            let i = rng.index(fields.len());
            match rng.index(4) {
                0 => drop(fields.remove(i)),
                1 => fields.push(fields[i].clone()),
                _ => edit_tree(&mut fields[i].1, rng),
            }
        }
        Json::Arr(items) if !items.is_empty() => {
            let i = rng.index(items.len());
            edit_tree(&mut items[i], rng);
        }
        // 10^12 milliseconds fit the cycle clock; 10^13 overflow it.
        Json::U64(_) | Json::I64(_) | Json::F64(_) => {
            *v = match rng.index(8) {
                0 => Json::U64(0),
                1 => Json::U64(1 << 53),
                2 => Json::U64(u64::MAX),
                3 => Json::U64(1_000_000_000_000),
                4 => Json::U64(10_000_000_000_000),
                5 => Json::F64(1e308),
                6 => Json::I64(-1),
                _ => Json::F64(0.5),
            }
        }
        _ => {}
    }
}

/// One mutated document: tree edits first, then text edits.
fn mutant(seed: &Json, rng: &mut SimRng) -> String {
    let mut doc = seed.clone();
    let edits = 1 + rng.index(3);
    let text_edits = (0..edits).filter(|_| rng.chance(0.25)).count();
    for _ in text_edits..edits {
        edit_tree(&mut doc, rng);
    }
    let mut bytes = doc.render().into_bytes();
    for _ in 0..text_edits {
        let at = rng.index(bytes.len().max(1));
        if rng.chance(0.5) {
            bytes.truncate(at);
        } else if let Some(b) = bytes.get_mut(at) {
            *b = rng.below(128) as u8;
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The checks on one document; `Err` names what broke.
fn check(text: &str) -> Result<(), String> {
    let Ok(s) = catch_unwind(|| Scenario::parse_str(text)).map_err(|_| "parse panicked")? else {
        return Ok(());
    };
    if Scenario::parse_str(&s.to_json().render()).as_ref() != Ok(&s) {
        return Err("the canonical render does not parse back".to_string());
    }
    for p in s.points()? {
        for &kind in &s.kinds {
            catch_unwind(|| Runner::new(p.config(kind)).run_until(ms(2)))
                .map_err(|_| format!("a 2 ms run panicked for {}", kind.label()))?;
        }
    }
    Ok(())
}

/// Random text, mostly JSON's own punctuation so some of it parses deep.
fn random_text(rng: &mut SimRng) -> String {
    const ALPHABET: &[u8] = b"{}[]\",:0123456789.eE+-\\tnrufalsu \n";
    let bytes: Vec<u8> = (0..rng.index(64))
        .map(|_| match rng.index(5) {
            0 => rng.below(256) as u8,
            _ => ALPHABET[rng.index(ALPHABET.len())],
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_and_random_inputs_fail_with_errors_not_panics() {
    let corpus = load_dir(&catalog_path("scenarios")).expect("scenarios/ loads");
    let seeds: Vec<Json> = corpus
        .iter()
        .map(|(_, s)| s.to_json())
        .chain((0..8).map(|i| bench::fuzz::case(i).to_json()))
        .collect();
    let failures: Vec<String> = (0..2_100u64)
        .filter_map(|case| {
            let mut rng = SimRng::new(case);
            let text = match case {
                0..100 => mutant(&seeds[rng.index(seeds.len())], &mut rng),
                _ => random_text(&mut rng),
            };
            check(&text)
                .err()
                .map(|why| format!("case {case}: {why}\n  {text}"))
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
