//! Golden encodings of `KllSketch` after fixed seeded streams.
//!
//! Each case folds the sketch's encoded bytes (which carry `k`, the
//! coin state, `n` and every level's items in order) into one FNV-1a
//! hash at several points of its stream. The constants were recorded
//! from the nested-`Vec` sketch, before the sketch moved to one flat
//! buffer; any change to the coin flips, the compaction order, merge
//! order or the encoding shows here as a hash mismatch. Never
//! regenerate them to make a change pass.

use pint_sketches::KllSketch;
use pint_wire::{WireDecode, WireEncode};

/// Deterministic value stream: splitmix64 over a counter.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Values of mixed varint widths: mostly small codes, some wide.
    fn value(&mut self) -> u64 {
        let z = self.next();
        match z % 8 {
            0 => z >> 3,
            1..=3 => z % 256,
            _ => z % 50_000,
        }
    }
}

/// Running FNV-1a over every encoding fed to it.
struct Fold {
    hash: u64,
    bytes: usize,
}

impl Fold {
    fn new() -> Self {
        Self {
            hash: 0xCBF2_9CE4_8422_2325,
            bytes: 0,
        }
    }

    fn take(&mut self, sk: &KllSketch) {
        let enc = sk.encode();
        self.bytes += enc.len();
        for b in enc {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Stream lengths at which the plain case folds its encoding.
const MARKS: [usize; 6] = [1, 7, 100, 1_000, 6_000, 20_000];

fn plain(k: usize, fold: &mut Fold) -> KllSketch {
    let mut sk = KllSketch::with_seed(k, 0xA5A5 ^ k as u64);
    let mut s = Stream(k as u64);
    let mut done = 0;
    for mark in MARKS {
        while done < mark {
            sk.update(s.value());
            done += 1;
        }
        fold.take(&sk);
    }
    sk
}

fn weighted(k: usize, fold: &mut Fold) -> KllSketch {
    let mut sk = KllSketch::with_seed(k, 0x5A5A ^ k as u64);
    let mut s = Stream(1_000 + k as u64);
    for i in 0..2_000u64 {
        let v = s.value();
        if i % 3 == 0 {
            sk.update(v);
        } else {
            sk.update_weighted(v, 1 + s.next() % 1_000);
        }
        if i % 250 == 0 {
            fold.take(&sk);
        }
    }
    fold.take(&sk);
    sk
}

fn merged(k: usize, fold: &mut Fold) -> KllSketch {
    let mut s = Stream(2_000 + k as u64);
    let mut a = KllSketch::with_seed(k, 11);
    let mut b = KllSketch::with_seed(k, 12);
    for _ in 0..7_000 {
        a.update(s.value());
    }
    for _ in 0..13_000 {
        b.update(s.value());
    }
    // A shallow sketch absorbing a taller one grows to its height.
    let mut small = KllSketch::with_seed(k, 13);
    for _ in 0..5 {
        small.update(s.value());
    }
    small.merge(&b);
    fold.take(&small);
    a.merge(&b);
    fold.take(&a);
    a.merge(&small);
    fold.take(&a);
    // Merging an empty sketch, and into an empty one.
    a.merge(&KllSketch::with_seed(k, 14));
    let mut empty = KllSketch::with_seed(k, 15);
    empty.merge(&a);
    fold.take(&empty);
    a
}

fn decoded_then_updated(k: usize, fold: &mut Fold) -> KllSketch {
    let mut scratch = Fold::new();
    let sk = weighted(k, &mut scratch);
    let mut sk = KllSketch::decode(&sk.encode()).unwrap();
    let mut s = Stream(3_000 + k as u64);
    for _ in 0..3_000 {
        sk.update(s.value());
    }
    fold.take(&sk);
    sk
}

type Case = fn(usize, &mut Fold) -> KllSketch;

const CASES: [(&str, Case); 4] = [
    ("plain", plain),
    ("weighted", weighted),
    ("merged", merged),
    ("decoded_then_updated", decoded_then_updated),
];

/// `(case, k, folded bytes, FNV-1a of the folded encodings, final
/// coin state)`, recorded from the nested-`Vec` sketch.
#[rustfmt::skip]
const GOLDEN: [(&str, usize, usize, u64, u64); 16] = [
    ("plain", 2, 325, 0x11E3BF4CE76DF93F, 0xB927272E308D68E7),
    ("plain", 3, 348, 0x8740EB8D3F732E5D, 0x250A2D5D68F05D2F),
    ("plain", 32, 1063, 0xBE6D77B0EC401E83, 0x8A107EFFE6E946D0),
    ("plain", 200, 4166, 0x7CA470DC1FC43CDE, 0x2D117BC3078004FC),
    ("weighted", 2, 955, 0x7B35C07CE06149D2, 0x0E2D82EDB55561A0),
    ("weighted", 3, 973, 0xBE823CB28E80C857, 0x14E9D833851E5735),
    ("weighted", 32, 2763, 0xF61285B97BAFE7A1, 0x3A7ECEAB7EE61929),
    ("weighted", 200, 13805, 0xB4FB3E8FE0C73E66, 0xF973B6BB7FB30F08),
    ("merged", 2, 365, 0x5AF778658081A677, 0x6DC37E3C533798B8),
    ("merged", 3, 349, 0x9C321290B673460E, 0x03F55132C1D3FBEC),
    ("merged", 32, 1105, 0x2A741EA87D0B1A01, 0xC2D7DF13AEF8E2B2),
    ("merged", 200, 5821, 0x33BCE9CBB3B3E290, 0xB123280DADC0398F),
    ("decoded_then_updated", 2, 113, 0xE5B8D5846A212EBD, 0x2A5CD1DF0D32CF35),
    ("decoded_then_updated", 3, 114, 0xC4DB3BB66CC1E40F, 0xBFC31D2D15B4FE3A),
    ("decoded_then_updated", 32, 396, 0x80B2EDCFC9AE83DB, 0x412FCC4E268382B5),
    ("decoded_then_updated", 200, 1840, 0xE4448876F80A6119, 0x84240679B9E94388),
];

#[test]
fn sketches_encode_to_their_golden_bytes() {
    let mut got = Vec::new();
    for (name, case) in CASES {
        for k in [2, 3, 32, 200] {
            let mut fold = Fold::new();
            let sk = case(k, &mut fold);
            got.push((name, k, fold.bytes, fold.hash, sk.coin_state()));
        }
    }
    assert_eq!(got, GOLDEN);
}
