//! ToTE analysis: histograms, batched argmax decoding, channel quality
//! metrics (Figure 1b, §4.1), and the decode loops every TET attack
//! shares: the memoized byte sweep, the KASLR slot sweep, the
//! byte-string leak and the vote majority.

use std::collections::BTreeMap;

use tet_os::layout::NUM_SLOTS;
use tet_uarch::Machine;

use crate::attacks::{LeakReport, LeakedByte};
use crate::batch::ProbeMemo;

/// Which extreme of the ToTE distribution marks the secret match.
///
/// TET-MD and TET-CC lengthen ToTE on a match ([`Polarity::MaxWins`]);
/// TET-ZBL and TET-RSB shorten it ([`Polarity::MinWins`], paper §4.3.2,
/// §4.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// The matching test value has the largest ToTE.
    MaxWins,
    /// The matching test value has the smallest ToTE.
    MinWins,
}

/// A ToTE frequency histogram (the raw data behind Figure 1b).
///
/// # Examples
///
/// ```
/// use whisper::Histogram;
///
/// let mut h = Histogram::new();
/// for t in [100, 100, 104, 130] {
///     h.add(t);
/// }
/// assert_eq!(h.mode(), Some(100));
/// assert_eq!(h.samples(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    bins: BTreeMap<u64, u64>,
    samples: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn add(&mut self, tote: u64) {
        *self.bins.entry(tote).or_insert(0) += 1;
        self.samples += 1;
    }

    /// Total samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The most frequent ToTE value, if any.
    pub fn mode(&self) -> Option<u64> {
        self.bins
            .iter()
            .max_by_key(|&(tote, count)| (*count, std::cmp::Reverse(*tote)))
            .map(|(tote, _)| *tote)
    }

    /// `(tote, count)` pairs in ascending ToTE order.
    pub fn bins(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins.iter().map(|(t, c)| (*t, *c))
    }

    /// Renders an ASCII frequency plot, `width` characters at the mode.
    pub fn render(&self, width: usize) -> String {
        let max = self.bins.values().copied().max().unwrap_or(1);
        let mut out = String::new();
        for (tote, count) in &self.bins {
            let bar = (count * width as u64 / max) as usize;
            out.push_str(&format!(
                "{tote:>8} | {:<width$} {count}\n",
                "#".repeat(bar)
            ));
        }
        out
    }
}

/// One decoded byte with its vote distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeOutcome {
    /// The decoded byte (the mode of per-batch winners).
    pub value: u8,
    /// Votes per candidate byte across batches.
    pub votes: Vec<u32>,
    /// Batches that produced a usable winner.
    pub valid_batches: u32,
    /// Min-aggregated ToTE per test value (`u64::MAX` where every probe
    /// failed) — the raw curve behind `value`, for experiments that need
    /// its shape (e.g. plateau edges) rather than just the arg-extreme.
    pub reduced: Vec<u64>,
}

impl DecodeOutcome {
    /// The set of test values whose aggregated ToTE equals the curve's
    /// extreme for `polarity` — a single element for a peaked curve, a
    /// plateau when a whole range of test values behaves identically.
    pub fn extreme_plateau(&self, polarity: Polarity) -> Vec<u8> {
        let valid = self.reduced.iter().copied().filter(|&t| t != u64::MAX);
        let Some(extreme) = (match polarity {
            Polarity::MaxWins => valid.max(),
            Polarity::MinWins => valid.min(),
        }) else {
            return Vec::new();
        };
        self.reduced
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t == extreme)
            .map(|(i, _)| i as u8)
            .collect()
    }
}

/// The paper's decoding procedure (§4.3.1): sweep the test value 0..=255
/// in batches and take the arg-extreme of the aggregated ToTE.
///
/// Aggregation uses the per-test-value **minimum** across batches:
/// interference (timer interrupts, evictions) only ever *adds* cycles, so
/// the minimum converges on the clean ToTE and the secret's systematic
/// offset survives — this is the standard outlier-rejection step of
/// timing PoCs. Per-batch winner votes are also recorded (the counting
/// plot of Figure 1b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgmaxDecoder {
    /// Number of sweeps to aggregate over.
    pub batches: u32,
    /// Which extreme marks the match.
    pub polarity: Polarity,
}

impl ArgmaxDecoder {
    /// Values whose aggregated ToTE exceeds the median by more than this
    /// are considered interference-corrupted and excluded from a MaxWins
    /// decision. The secret's systematic offset is tens of cycles; an OS
    /// interrupt bubble is hundreds.
    pub const OUTLIER_CAP: u64 = 150;

    /// Creates a decoder.
    pub fn new(batches: u32, polarity: Polarity) -> Self {
        assert!(batches > 0, "need at least one batch");
        ArgmaxDecoder { batches, polarity }
    }

    /// Decodes one byte. `probe(test, batch)` returns the ToTE sample for
    /// the given test value, or `None` when the measurement failed.
    pub fn decode<F>(&self, mut probe: F) -> DecodeOutcome
    where
        F: FnMut(u8, u32) -> Option<u64>,
    {
        let mut votes = vec![0u32; 256];
        let mut reduced = vec![u64::MAX; 256];
        let mut valid_batches = 0;
        for batch in 0..self.batches {
            let mut best: Option<(u64, u8)> = None;
            for test in 0..=255u8 {
                let Some(t) = probe(test, batch) else {
                    continue;
                };
                reduced[test as usize] = reduced[test as usize].min(t);
                let better = match (&best, self.polarity) {
                    (None, _) => true,
                    (Some((b, _)), Polarity::MaxWins) => t > *b,
                    (Some((b, _)), Polarity::MinWins) => t < *b,
                };
                if better {
                    best = Some((t, test));
                }
            }
            if let Some((_, winner)) = best {
                votes[winner as usize] += 1;
                valid_batches += 1;
            }
        }
        // Final decision from the noise-rejected per-value minima. For
        // MaxWins an additional outlier cut is needed: a value whose
        // *every* sample was hit by an interrupt has an inflated minimum
        // and would steal the argmax. Interference bubbles are an order
        // of magnitude larger than the secret's systematic offset, so
        // values more than [`Self::OUTLIER_CAP`] above the median are
        // treated as corrupted and excluded. (MinWins is inherently
        // immune: interference only ever adds cycles.)
        let mut valid: Vec<(usize, u64)> = reduced
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, t)| t != u64::MAX)
            .collect();
        let value = match self.polarity {
            Polarity::MaxWins => {
                let mut sorted: Vec<u64> = valid.iter().map(|&(_, t)| t).collect();
                sorted.sort_unstable();
                let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0);
                valid.retain(|&(_, t)| t <= median + Self::OUTLIER_CAP);
                // Ties resolve to the lowest test value for both
                // polarities (`max_by_key` alone would return the *last*
                // maximum while `min_by_key` returns the *first* minimum,
                // making the decode asymmetric between polarities).
                valid
                    .iter()
                    .max_by_key(|&&(i, t)| (t, std::cmp::Reverse(i)))
                    .map(|&(i, _)| i as u8)
            }
            Polarity::MinWins => valid
                .iter()
                .min_by_key(|&&(i, t)| (t, i))
                .map(|&(i, _)| i as u8),
        }
        .unwrap_or(0);
        DecodeOutcome {
            value,
            votes,
            valid_batches,
            reduced,
        }
    }

    /// The byte sweep of every TET byte attack: [`ArgmaxDecoder::decode`]
    /// with each probe `measure(machine, test) -> Option<(ToTE, cycles)>`
    /// run through `memo`, which replays proven-fixed probes instead of
    /// simulating them. `prelude` runs before every probe, replayed
    /// ones included (TET-ZBL's victim touch must keep the hierarchy
    /// and its jitter stream moving exactly as live; `|_| {}` for
    /// none). Returns the outcome and the summed cycles of the
    /// completed probes. The memo is the caller's, so one sweep's
    /// fixed point can carry into the next.
    pub(crate) fn decode_memoized(
        &self,
        memo: &mut ProbeMemo<Option<(u64, u64)>>,
        machine: &mut Machine,
        mut prelude: impl FnMut(&mut Machine),
        mut measure: impl FnMut(&mut Machine, u64) -> Option<(u64, u64)>,
    ) -> (DecodeOutcome, u64) {
        let mut cycles = 0u64;
        let out = self.decode(|test, _| {
            prelude(machine);
            let (tote, c) = memo.probe(machine, test as u64, |m| measure(m, test as u64))?;
            cycles += c;
            Some(tote)
        });
        (out, cycles)
    }
}

/// The KASLR slot sweep (§4.5): for each of the 512 candidate slots,
/// `samples` times flush the TLBs and run `measure(machine, slot) ->
/// Option<(ToTE, cycles)>`. A slot's ToTE is the minimum over its
/// completed samples (`0` when none completed); probes and cycles count
/// completed samples only. Returns `(slot_totes, probes, cycles)`.
pub(crate) fn slot_sweep(
    machine: &mut Machine,
    samples: u32,
    mut measure: impl FnMut(&mut Machine, u64) -> Option<(u64, u64)>,
) -> (Vec<u64>, u64, u64) {
    let mut slot_totes = Vec::with_capacity(NUM_SLOTS as usize);
    let (mut probes, mut cycles) = (0u64, 0u64);
    for slot in 0..NUM_SLOTS {
        let mut best = u64::MAX;
        for _ in 0..samples {
            machine.flush_tlbs();
            if let Some((tote, c)) = measure(machine, slot) {
                best = best.min(tote);
                cycles += c;
                probes += 1;
            }
        }
        slot_totes.push(if best == u64::MAX { 0 } else { best });
    }
    (slot_totes, probes, cycles)
}

/// The byte-string leak: `leak_byte(i)` for `i` in `0..len`, collected
/// into a [`LeakReport`] of the decoded values and their summed cycles.
pub(crate) fn leak_bytes(
    len: usize,
    freq_ghz: f64,
    mut leak_byte: impl FnMut(u64) -> LeakedByte,
) -> LeakReport {
    let mut recovered = Vec::with_capacity(len);
    let mut cycles = 0u64;
    for i in 0..len as u64 {
        let b = leak_byte(i);
        recovered.push(b.value);
        cycles += b.cycles;
    }
    LeakReport::new(recovered, cycles, freq_ghz)
}

/// The candidate with the most votes. On a tie the **last** maximum
/// wins (`max_by_key`'s rule) — unlike [`ArgmaxDecoder`], whose ToTE
/// ties resolve to the lowest test value.
pub(crate) fn vote_majority(votes: &[u32]) -> u8 {
    votes
        .iter()
        .enumerate()
        .max_by_key(|&(_, v)| *v)
        .map(|(i, _)| i as u8)
        .unwrap_or(0)
}

/// Fraction of positions where `received` differs from `sent`
/// (positions missing from `received` count as errors).
///
/// # Examples
///
/// ```
/// use whisper::analysis::error_rate;
/// assert_eq!(error_rate(b"abcd", b"abcd"), 0.0);
/// assert_eq!(error_rate(b"abcd", b"abxd"), 0.25);
/// assert_eq!(error_rate(b"abcd", b"ab"), 0.5);
/// ```
pub fn error_rate(sent: &[u8], received: &[u8]) -> f64 {
    if sent.is_empty() {
        return 0.0;
    }
    let wrong = sent
        .iter()
        .enumerate()
        .filter(|&(i, b)| received.get(i) != Some(b))
        .count();
    wrong as f64 / sent.len() as f64
}

/// Converts a byte count and a simulated cycle count to bytes/second at a
/// given core frequency — how §4.1's throughput figures are computed.
pub fn bytes_per_second(bytes: usize, cycles: u64, freq_ghz: f64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    bytes as f64 / (cycles as f64 / (freq_ghz * 1e9))
}

/// Summary statistics over a sample set — the `n = 3, µ, sd` style
/// figures of §4.1.
///
/// # Examples
///
/// ```
/// use whisper::analysis::Stats;
///
/// let s = Stats::of(&[2.0, 4.0, 6.0]);
/// assert_eq!(s.n, 3);
/// assert_eq!(s.mean, 4.0);
/// assert!((s.sd - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
/// assert_eq!(s.min, 2.0);
/// assert_eq!(s.max, 6.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub sd: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Stats {
    /// Computes the summary of `samples` (all zeros for an empty set).
    pub fn of(samples: &[f64]) -> Stats {
        if samples.is_empty() {
            return Stats {
                n: 0,
                mean: 0.0,
                sd: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        Stats {
            n,
            mean,
            sd: var.sqrt(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Computes the summary of integer cycle samples.
    pub fn of_cycles(samples: &[u64]) -> Stats {
        let v: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
        Stats::of(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mode_prefers_highest_count() {
        let mut h = Histogram::new();
        for t in [5, 5, 5, 9, 9] {
            h.add(t);
        }
        assert_eq!(h.mode(), Some(5));
        assert_eq!(h.bins().count(), 2);
    }

    #[test]
    fn histogram_render_contains_bars() {
        let mut h = Histogram::new();
        h.add(100);
        h.add(100);
        h.add(120);
        let s = h.render(10);
        assert!(s.contains("100"));
        assert!(s.contains('#'));
    }

    #[test]
    fn empty_histogram_has_no_mode() {
        assert_eq!(Histogram::new().mode(), None);
    }

    #[test]
    fn decoder_max_wins_finds_planted_peak() {
        let d = ArgmaxDecoder::new(3, Polarity::MaxWins);
        let out = d.decode(|test, _| Some(if test == 0x42 { 200 } else { 100 }));
        assert_eq!(out.value, 0x42);
        assert_eq!(out.votes[0x42], 3);
        assert_eq!(out.valid_batches, 3);
    }

    #[test]
    fn decoder_min_wins_finds_planted_dip() {
        let d = ArgmaxDecoder::new(2, Polarity::MinWins);
        let out = d.decode(|test, _| Some(if test == 0x17 { 80 } else { 100 }));
        assert_eq!(out.value, 0x17);
    }

    #[test]
    fn decoder_majority_voting_beats_noise() {
        // One batch is corrupted; two clean batches out-vote it.
        let d = ArgmaxDecoder::new(3, Polarity::MaxWins);
        let out = d.decode(|test, batch| {
            Some(match (batch, test) {
                (1, 0x99) => 500, // noise spike in batch 1
                (_, 0x42) => 200,
                _ => 100,
            })
        });
        assert_eq!(out.value, 0x42);
        assert_eq!(out.votes[0x99], 1);
    }

    #[test]
    fn decoder_tolerates_failed_probes() {
        let d = ArgmaxDecoder::new(2, Polarity::MaxWins);
        let out = d.decode(|test, _| {
            if test % 2 == 0 {
                None
            } else {
                Some(if test == 0x43 { 120 } else { 50 })
            }
        });
        assert_eq!(out.value, 0x43);
    }

    #[test]
    fn decoder_rejects_fully_corrupted_values() {
        // A value whose every sample carries an interrupt bubble must not
        // steal the argmax from the secret's modest systematic offset.
        let d = ArgmaxDecoder::new(3, Polarity::MaxWins);
        let out = d.decode(|test, _| {
            Some(match test {
                0x10 => 520, // corrupted in every batch
                0x42 => 130, // the secret
                _ => 100,
            })
        });
        assert_eq!(out.value, 0x42);
    }

    #[test]
    fn decoder_breaks_ties_toward_lowest_value_for_both_polarities() {
        // Two test values tie at the extreme ToTE. The decode must pick
        // the same (lowest) one under both polarities — `max_by_key`
        // returns the last maximal element, which used to make MaxWins
        // resolve ties to the *highest* value while MinWins picked the
        // lowest.
        let tied = |test: u8| {
            Some(if test == 0x10 || test == 0xa0 {
                130
            } else {
                100
            })
        };
        let max = ArgmaxDecoder::new(2, Polarity::MaxWins).decode(|t, _| tied(t));
        assert_eq!(max.value, 0x10, "MaxWins tie must resolve low");

        let dipped = |test: u8| {
            Some(if test == 0x10 || test == 0xa0 {
                70
            } else {
                100
            })
        };
        let min = ArgmaxDecoder::new(2, Polarity::MinWins).decode(|t, _| dipped(t));
        assert_eq!(min.value, 0x10, "MinWins tie must resolve low");
    }

    #[test]
    fn vote_majority_breaks_ties_toward_the_last_maximum() {
        let mut votes = vec![0u32; 256];
        votes[0x10] = 2;
        votes[0xa0] = 2;
        votes[0x30] = 1;
        assert_eq!(vote_majority(&votes), 0xa0, "the last maximum wins");
        // The decoder resolves the same tie the other way.
        let tied = |test: u8| {
            Some(if test == 0x10 || test == 0xa0 {
                130
            } else {
                100
            })
        };
        let max = ArgmaxDecoder::new(1, Polarity::MaxWins).decode(|t, _| tied(t));
        assert_eq!(max.value, 0x10);
        assert_eq!(vote_majority(&[0; 4]), 3, "all-zero votes tie too");
        assert_eq!(vote_majority(&[]), 0);
    }

    #[test]
    fn decoder_all_failed_probes_yields_zero_votes() {
        let d = ArgmaxDecoder::new(2, Polarity::MaxWins);
        let out = d.decode(|_, _| None);
        assert_eq!(out.valid_batches, 0);
        assert!(out.votes.iter().all(|&v| v == 0));
    }

    #[test]
    #[should_panic(expected = "at least one batch")]
    fn decoder_rejects_zero_batches() {
        let _ = ArgmaxDecoder::new(0, Polarity::MaxWins);
    }

    #[test]
    fn stats_of_empty_is_zeroes() {
        let s = Stats::of(&[]);
        assert_eq!((s.n, s.mean, s.sd), (0, 0.0, 0.0));
    }

    #[test]
    fn stats_of_constant_has_zero_sd() {
        let s = Stats::of_cycles(&[9, 9, 9, 9]);
        assert_eq!(s.mean, 9.0);
        assert_eq!(s.sd, 0.0);
        assert_eq!((s.min, s.max), (9.0, 9.0));
    }

    #[test]
    fn throughput_math() {
        // 1000 bytes in 1e9 cycles at 1 GHz = 1000 B/s.
        let bps = bytes_per_second(1000, 1_000_000_000, 1.0);
        assert!((bps - 1000.0).abs() < 1e-6);
    }
}
