//! Pre-randomized batch frames: what client devices would send, encoded
//! once at set-up and replayed by the wire workloads and probes.

use mdrr_data::Dataset;
use mdrr_protocols::Protocol;
use mdrr_stream::wire::{self, FrameType};
use mdrr_stream::ReportBatch;
use rand::RngCore;

/// Encoded batch frames of one protocol, each over the same number of
/// reports, with the true attribute counts of the records behind them.
#[derive(Debug, Clone)]
pub struct FrameSet {
    pub frames: Vec<Vec<u8>>,
    pub reports_per_frame: usize,
    /// `truth[frame][attribute][value]`.
    pub truth: Vec<Vec<Vec<u64>>>,
}

impl FrameSet {
    /// Randomizes `records` (whose record count must be a multiple of
    /// `reports_per_frame`) with the protocol's batch encoder and frames
    /// every batch.  The shard hint of frame `i` is `i`.
    pub fn build(
        protocol: &dyn Protocol,
        records: &Dataset,
        reports_per_frame: usize,
        rng: &mut dyn RngCore,
    ) -> FrameSet {
        let n = records.n_records();
        assert!(
            n > 0 && n.is_multiple_of(reports_per_frame),
            "whole frames only: {n} records, {reports_per_frame} per frame"
        );
        let cardinalities = records.schema().cardinalities();
        let view = records.view();
        let mut batch = ReportBatch::for_protocol(protocol);
        let mut frames = Vec::with_capacity(n / reports_per_frame);
        let mut truth = Vec::with_capacity(n / reports_per_frame);
        for (i, start) in (0..n).step_by(reports_per_frame).enumerate() {
            let range = start..start + reports_per_frame;
            let chunk = view.slice(range.clone()).expect("range inside the records");
            batch
                .encode_records(protocol, &chunk, rng)
                .expect("generated records fit the protocol");
            let payload = wire::encode_batch_payload(0, i as u32, &batch)
                .expect("a batch below the payload cap");
            frames.push(wire::encode_frame(FrameType::Batch, &payload).expect("a valid frame"));
            truth.push(
                cardinalities
                    .iter()
                    .enumerate()
                    .map(|(j, &r)| {
                        let column = records.column(j).expect("attribute in range");
                        let mut counts = vec![0u64; r];
                        for &v in &column[range.clone()] {
                            counts[v as usize] += 1;
                        }
                        counts
                    })
                    .collect(),
            );
        }
        FrameSet {
            frames,
            reports_per_frame,
            truth,
        }
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }

    pub fn bytes_per_frame(&self) -> usize {
        self.frames.first().map_or(0, Vec::len)
    }

    /// The per-channel counts a collector must hold after frame `i` was
    /// ingested `times[i]` times.
    pub fn expected_counts(&self, protocol: &dyn Protocol, times: &[u64]) -> Vec<Vec<u64>> {
        let mut counts: Vec<Vec<u64>> = protocol
            .channel_sizes()
            .iter()
            .map(|&s| vec![0u64; s])
            .collect();
        let mut batch = ReportBatch::for_protocol(protocol);
        for (frame, &k) in self.frames.iter().zip(times) {
            if k == 0 {
                continue;
            }
            wire::decode_batch_payload(wire::frame_payload(frame), &mut batch)
                .expect("frames built by this benchmark decode");
            for (tally, codes) in counts.iter_mut().zip(batch.channels()) {
                for &code in codes {
                    tally[code as usize] += k;
                }
            }
        }
        counts
    }

    /// True attribute counts of frame `i` weighted by `times[i]`.
    pub fn weighted_truth(&self, times: &[u64]) -> Vec<Vec<f64>> {
        let mut out: Vec<Vec<f64>> = self.truth[0]
            .iter()
            .map(|counts| vec![0.0; counts.len()])
            .collect();
        for (frame, &k) in self.truth.iter().zip(times) {
            for (acc, counts) in out.iter_mut().zip(frame) {
                for (a, &c) in acc.iter_mut().zip(counts) {
                    *a += (k * c) as f64;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_data::AdultSynthesizer;
    use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn frames_replay_to_the_expected_counts() {
        let mut rng = StdRng::seed_from_u64(5);
        let records = AdultSynthesizer::new(96).unwrap().generate(&mut rng);
        let protocol = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7))
            .build(records.schema())
            .unwrap();
        let set = FrameSet::build(protocol.as_ref(), &records, 32, &mut rng);
        assert_eq!(set.len(), 3);
        assert_eq!(set.bytes_per_frame(), wire::frame_len(20 + 32 * 8 * 4));
        let counts = set.expected_counts(protocol.as_ref(), &[2, 0, 1]);
        assert_eq!(counts.len(), 8);
        for tally in &counts {
            assert_eq!(tally.iter().sum::<u64>(), 3 * 32);
        }
        let truth = set.weighted_truth(&[2, 0, 1]);
        assert_eq!(truth[0].iter().sum::<f64>(), 96.0);
        let first = &records.column(0).unwrap()[..32];
        assert_eq!(set.truth[0][0].iter().sum::<u64>(), first.len() as u64);
    }
}
