//! Mixed-corpus builder: realistic logger sessions interleave traffic types
//! (CAN frames, then a burst of JSON status, then binary sensor dumps...).
//! Mixing stresses the compressor's *adaptivity*: every segment switch
//! invalidates most of the dictionary, so designs that amortise slowly
//! (big windows, deep chains) lose more than the per-corpus numbers
//! suggest.

use crate::corpus::{generate, Corpus};
use lzfpga_sim::rng::XorShift64;

/// A segment recipe: corpus plus relative weight.
#[derive(Debug, Clone, Copy)]
pub struct Ingredient {
    /// What to generate.
    pub corpus: Corpus,
    /// Relative share of the output (weights are normalised).
    pub weight: f64,
}

/// The default logger mix: mostly CAN, some telemetry, occasional text.
pub fn logger_mix() -> Vec<Ingredient> {
    vec![
        Ingredient { corpus: Corpus::X2e, weight: 5.0 },
        Ingredient { corpus: Corpus::JsonTelemetry, weight: 2.0 },
        Ingredient { corpus: Corpus::SensorFrames, weight: 2.0 },
        Ingredient { corpus: Corpus::LogLines, weight: 1.0 },
    ]
}

/// Build `len` bytes from `ingredients`, switching segment every
/// `segment_len` bytes on a weighted deterministic schedule.
///
/// # Panics
/// Panics on an empty recipe or non-positive weights.
pub fn generate_mixed(
    ingredients: &[Ingredient],
    seed: u64,
    len: usize,
    segment_len: usize,
) -> Vec<u8> {
    assert!(!ingredients.is_empty(), "need at least one ingredient");
    assert!(ingredients.iter().all(|i| i.weight > 0.0), "weights must be positive");
    assert!(segment_len > 0, "segment length must be positive");
    let total_weight: f64 = ingredients.iter().map(|i| i.weight).sum();
    let mut rng = XorShift64::new(seed ^ 0x4D49_5845);
    let mut out = Vec::with_capacity(len);
    let mut segment_seed = seed;
    while out.len() < len {
        // Weighted pick.
        let mut roll = rng.next_f64() * total_weight;
        let mut chosen = ingredients[0].corpus;
        for ing in ingredients {
            if roll < ing.weight {
                chosen = ing.corpus;
                break;
            }
            roll -= ing.weight;
        }
        segment_seed = segment_seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let take = segment_len.min(len - out.len());
        out.extend_from_slice(&generate(chosen, segment_seed, take));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sized() {
        let a = generate_mixed(&logger_mix(), 7, 100_000, 8_192);
        let b = generate_mixed(&logger_mix(), 7, 100_000, 8_192);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100_000);
        assert_ne!(a, generate_mixed(&logger_mix(), 8, 100_000, 8_192));
    }

    #[test]
    fn contains_multiple_traffic_types() {
        let data = generate_mixed(&logger_mix(), 3, 300_000, 8_192);
        let text = String::from_utf8_lossy(&data);
        // JSON telemetry keys and sensor magic both appear somewhere.
        assert!(text.contains("\"seq\":"), "telemetry segment missing");
        assert!(data.windows(2).any(|w| w == 0xA55Au16.to_le_bytes()), "sensor segment missing");
    }

    #[test]
    fn weights_steer_composition() {
        // All-weight-on-one degenerates to that corpus.
        let only = vec![Ingredient { corpus: Corpus::Constant, weight: 1.0 }];
        let data = generate_mixed(&only, 1, 10_000, 1_000);
        assert!(data.iter().all(|&b| b == data[0]));
    }

    #[test]
    #[should_panic(expected = "at least one ingredient")]
    fn empty_recipe_rejected() {
        generate_mixed(&[], 1, 100, 10);
    }

    /// The same bytes twice: per-ingredient streams sized in weight
    /// proportion, cut into `coarse`- and `fine`-byte segments and
    /// interleaved in one weighted order (each pick weighted by the bytes
    /// an ingredient has left), so only the segment length differs.
    fn same_bytes_two_segmentings(
        seed: u64,
        len: usize,
        coarse: usize,
        fine: usize,
    ) -> [Vec<u8>; 2] {
        let mix = logger_mix();
        let total: f64 = mix.iter().map(|i| i.weight).sum();
        let streams: Vec<Vec<u8>> = (0u64..)
            .zip(&mix)
            .map(|(k, i)| generate(i.corpus, seed + k, (len as f64 * i.weight / total) as usize))
            .collect();
        [coarse, fine].map(|segment| {
            let mut rng = XorShift64::new(seed);
            let mut left: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
            let mut out = Vec::with_capacity(len);
            loop {
                let remaining: usize = left.iter().map(|s| s.len()).sum();
                if remaining == 0 {
                    return out;
                }
                let mut roll = (rng.next_f64() * remaining as f64) as usize;
                let k = left
                    .iter()
                    .position(|s| {
                        if roll < s.len() {
                            return true;
                        }
                        roll -= s.len();
                        false
                    })
                    .expect("roll < remaining");
                let (head, tail) = left[k].split_at(segment.min(left[k].len()));
                out.extend_from_slice(head);
                left[k] = tail;
            }
        })
    }

    #[test]
    fn segment_switches_cost_ratio() {
        // The adaptivity claim: a fine-grained mix compresses worse than
        // the same bytes in long segments.
        let [coarse, fine] = same_bytes_two_segmentings(5, 400_000, 65_536, 4_096);
        let mut sorted = [coarse.clone(), fine.clone()];
        sorted.iter_mut().for_each(|d| d.sort_unstable());
        assert_eq!(sorted[0], sorted[1], "both inputs hold the same bytes");
        let params = lzfpga_lzss::LzssParams::paper_fast();
        let bits = |d: &[u8]| {
            lzfpga_deflate::encoder::fixed_block_bit_size(&lzfpga_lzss::compress(d, &params))
        };
        assert!(bits(&fine) > bits(&coarse), "mixing must not look free");
    }
}
