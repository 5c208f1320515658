//! The benchmark's own load generator. Every input the program sees is
//! drawn here from `--seed` with SplitMix64; the program under test never
//! generates its own traffic. Equal seeds give equal streams (see
//! [`stream_hash`]).

use crate::catalogue::{FULL_OFFLINE, SERVE_HOT8, SERVE_SINGLE, UPDATE_MIX};
use crate::workloads::{full_offline, serve_single, CORA_NODES, PUBMED_FEATURES, PUBMED_NODES};
use blockgnn_engine::{GraphDelta, InferRequest};
use blockgnn_graph::Dataset;

/// Sampling fan-outs of every sampled request (the paper's §IV-A values).
pub const S1: usize = 25;
/// See [`S1`].
pub const S2: usize = 10;

/// Distinct requests in the `serve_hot8` pool.
pub const HOT_POOL: usize = 64;
/// Zipf exponent of the `serve_hot8` draw.
pub const HOT_ZIPF_S: f64 = 1.1;
/// After this many `serve_hot8` draws the popularity ranks move one pool
/// entry on. See [`HotStream`].
pub const HOT_ROTATE_EVERY: usize = 32;
/// An edge added by an `update_mix` delta is removed this many updates
/// later, so the graph stays stationary.
pub const EDGE_LIFETIME: usize = 8;
/// Nodes per `update_mix` read.
pub const READ_NODES: usize = 3;

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound` (multiply-shift; the bias is below 2⁻⁴⁰ for
    /// the bounds used here).
    pub fn below(&mut self, bound: usize) -> usize {
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }

    /// An independent generator for sub-stream `lane` of this seed.
    pub fn fork(seed: u64, lane: u64) -> Self {
        let mut root = Self::new(seed ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        Self::new(root.next_u64())
    }
}

/// Zipf over ranks `0..n` with exponent `s`, drawn by inverting the CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    /// Theoretical probability of rank 0.
    #[cfg(test)]
    pub fn head_share(&self) -> f64 {
        self.cdf[0]
    }

    pub fn draw(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// `serve_single`: one-target sampled requests, uniform node, fresh
/// sampling seed per request (so nothing dedups and nothing caches). One
/// stream per connection.
#[derive(Debug, Clone)]
pub struct SingleStream {
    rng: SplitMix64,
    num_nodes: usize,
}

impl SingleStream {
    pub fn new(seed: u64, connection: u64, num_nodes: usize) -> Self {
        Self { rng: SplitMix64::fork(seed, 0x51 + connection), num_nodes }
    }

    pub fn next_request(&mut self) -> InferRequest {
        self.sampled(1)
    }

    /// A sampled request over `targets` distinct uniform nodes (the
    /// batch-16 / batch-256 rungs of the traced pass).
    pub fn sampled(&mut self, targets: usize) -> InferRequest {
        let mut nodes = Vec::with_capacity(targets);
        while nodes.len() < targets {
            let node = self.rng.below(self.num_nodes);
            if !nodes.contains(&node) {
                nodes.push(node);
            }
        }
        InferRequest::sampled(nodes, S1, S2, self.rng.next_u64())
    }
}

/// `serve_hot8`: a fixed pool of distinct two-target sampled requests and
/// a zipf draw over it, so hot requests repeat inside a micro-batch.
///
/// Which entry holds which popularity rank rotates: every
/// [`HOT_ROTATE_EVERY`] draws each rank moves to the next entry, so over
/// `HOT_POOL × HOT_ROTATE_EVERY` = 2 048 draws (a third of a second) every
/// entry has been the hottest equally long. With a fixed ranking the three
/// hottest entries were half the traffic, their sampled subgraphs' sizes
/// set the cost of the run, and throughput followed the seed (11 600 to
/// 16 500 nodes/s over ten seeds, each seed repeating its own value).
#[derive(Debug, Clone)]
pub struct HotStream {
    pub pool: Vec<InferRequest>,
    zipf: Zipf,
    rng: SplitMix64,
    drawn: usize,
}

impl HotStream {
    pub fn new(seed: u64, num_nodes: usize) -> Self {
        let mut rng = SplitMix64::fork(seed, 0x48);
        let mut pool: Vec<InferRequest> = Vec::with_capacity(HOT_POOL);
        while pool.len() < HOT_POOL {
            let a = rng.below(num_nodes);
            let b = rng.below(num_nodes);
            let request = InferRequest::sampled(vec![a, b], S1, S2, rng.next_u64());
            if a != b && !pool.contains(&request) {
                pool.push(request);
            }
        }
        Self { pool, zipf: Zipf::new(HOT_POOL, HOT_ZIPF_S), rng, drawn: 0 }
    }

    /// Popularity rank of the next request, 0 the hottest.
    fn next_rank(&mut self) -> usize {
        self.zipf.draw(&mut self.rng)
    }

    /// Index into [`HotStream::pool`] of the next request.
    pub fn next_index(&mut self) -> usize {
        let shift = self.drawn / HOT_ROTATE_EVERY;
        self.drawn += 1;
        (self.next_rank() + shift) % HOT_POOL
    }
}

/// `update_mix` reader: `infer full <3 uniform nodes>` — answered from
/// the version-keyed logits cache except right after a write.
#[derive(Debug, Clone)]
pub struct ReadStream {
    rng: SplitMix64,
    num_nodes: usize,
}

impl ReadStream {
    pub fn new(seed: u64, num_nodes: usize) -> Self {
        Self { rng: SplitMix64::fork(seed, 0x52), num_nodes }
    }

    pub fn next_read(&mut self) -> InferRequest {
        InferRequest::full_graph(
            (0..READ_NODES).map(|_| self.rng.below(self.num_nodes)).collect::<Vec<_>>(),
        )
    }
}

/// `update_mix` writer: each delta sets one feature row, adds one edge,
/// and removes the edge added [`EDGE_LIFETIME`] updates earlier. Edges
/// form a multiset in the versioned graph, so an add never fails and the
/// paired remove always finds its edge.
#[derive(Debug, Clone)]
pub struct WriteStream {
    rng: SplitMix64,
    num_nodes: usize,
    feature_dim: usize,
    /// Edges added by the last [`EDGE_LIFETIME`] deltas, oldest first.
    live_edges: std::collections::VecDeque<(usize, usize)>,
}

impl WriteStream {
    pub fn new(seed: u64, num_nodes: usize, feature_dim: usize) -> Self {
        Self {
            rng: SplitMix64::fork(seed, 0x57),
            num_nodes,
            feature_dim,
            live_edges: std::collections::VecDeque::new(),
        }
    }

    pub fn next_delta(&mut self) -> GraphDelta {
        let node = self.rng.below(self.num_nodes);
        let row = (0..self.feature_dim).map(|_| self.rng.next_f64() * 2.0 - 1.0).collect();
        let u = self.rng.below(self.num_nodes);
        let v = (u + 1 + self.rng.below(self.num_nodes - 1)) % self.num_nodes;
        let mut delta = GraphDelta::new().set_feature_row(node, row).add_edge(u, v);
        self.live_edges.push_back((u, v));
        if self.live_edges.len() > EDGE_LIFETIME {
            let (ru, rv) = self.live_edges.pop_front().expect("checked non-empty");
            delta = delta.remove_edge(ru, rv);
        }
        delta
    }
}

/// FNV-1a over 64-bit words: the fingerprint of a request stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn request(&mut self, request: &InferRequest) {
        self.word(request.nodes.len() as u64);
        for &node in &request.nodes {
            self.word(node as u64);
        }
        match request.mode {
            blockgnn_engine::RequestMode::FullGraph => self.word(0),
            blockgnn_engine::RequestMode::Sampled { s1, s2, seed } => {
                self.word(1);
                self.word(s1 as u64);
                self.word(s2 as u64);
                self.word(seed);
            }
        }
    }

    pub fn delta(&mut self, delta: &GraphDelta) {
        for &(u, v) in delta.add_edges.iter().chain(&delta.remove_edges) {
            self.word(u as u64);
            self.word(v as u64);
        }
        for (node, row) in &delta.set_features {
            self.word(*node as u64);
            for value in row {
                self.word(value.to_bits());
            }
        }
    }

    /// The graph and features of a dataset — `full_offline`'s only input.
    pub fn dataset(&mut self, dataset: &Dataset) {
        for (u, v) in dataset.graph.iter_arcs() {
            self.word(u as u64);
            self.word(v as u64);
        }
        for value in dataset.features.as_slice() {
            self.word(value.to_bits());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of the first `items` inputs workload `name` would see
/// under `seed` (for `full_offline`, of its dataset).
pub fn stream_hash(name: &str, seed: u64, items: usize) -> Option<u64> {
    let mut hash = Fnv::default();
    match name {
        FULL_OFFLINE => hash.dataset(&full_offline::dataset(seed)),
        SERVE_SINGLE => {
            for connection in 0..serve_single::CONNECTIONS as u64 {
                let mut stream = SingleStream::new(seed, connection, CORA_NODES);
                (0..items).for_each(|_| hash.request(&stream.next_request()));
            }
        }
        SERVE_HOT8 => {
            let mut stream = HotStream::new(seed, CORA_NODES);
            stream.pool.iter().for_each(|r| hash.request(r));
            (0..items).for_each(|_| hash.word(stream.next_index() as u64));
        }
        UPDATE_MIX => {
            let mut reads = ReadStream::new(seed, PUBMED_NODES);
            let mut writes = WriteStream::new(seed, PUBMED_NODES, PUBMED_FEATURES);
            for _ in 0..items {
                hash.request(&reads.next_read());
                hash.delta(&writes.next_delta());
            }
        }
        _ => return None,
    }
    Some(hash.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::WORKLOADS;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for workload in WORKLOADS {
            let a = stream_hash(workload.name, 11, 500).unwrap();
            let b = stream_hash(workload.name, 11, 500).unwrap();
            let c = stream_hash(workload.name, 12, 500).unwrap();
            assert_eq!(a, b, "{}: equal seeds must give equal streams", workload.name);
            assert_ne!(a, c, "{}: seeds 11 and 12 must differ", workload.name);
        }
        assert_eq!(stream_hash("nope", 11, 1), None);
    }

    #[test]
    fn zipf_head_share_is_within_two_percent_of_theory() {
        let mut stream = HotStream::new(11, 680);
        let draws = 400_000;
        let head = (0..draws).filter(|_| stream.next_rank() == 0).count();
        let measured = head as f64 / draws as f64;
        let theory = Zipf::new(HOT_POOL, HOT_ZIPF_S).head_share();
        assert!(
            (measured / theory - 1.0).abs() < 0.02,
            "head share {measured:.4} vs theory {theory:.4}"
        );
    }

    #[test]
    fn hot_ranks_rotate_over_the_pool() {
        // The index is the rank moved on by one entry per period.
        let mut stream = HotStream::new(11, 680);
        let mut ranks = stream.clone();
        for draw in 0..3 * HOT_ROTATE_EVERY {
            let expected = (ranks.next_rank() + draw / HOT_ROTATE_EVERY) % HOT_POOL;
            assert_eq!(stream.next_index(), expected, "draw {draw}");
        }
        // Over whole rotations every entry gets the same share of traffic.
        let mut stream = HotStream::new(11, 680);
        let rotations = 50;
        let mut hits = [0usize; HOT_POOL];
        for _ in 0..rotations * HOT_POOL * HOT_ROTATE_EVERY {
            hits[stream.next_index()] += 1;
        }
        let even = (rotations * HOT_ROTATE_EVERY) as f64;
        for (entry, &n) in hits.iter().enumerate() {
            assert!((n as f64 / even - 1.0).abs() < 0.15, "entry {entry}: {n} of {even}");
        }
    }

    #[test]
    fn update_stream_keeps_the_graph_stationary() {
        let mut stream = WriteStream::new(11, 100, 4);
        let mut live = 0isize;
        for i in 0..40 {
            let delta = stream.next_delta();
            live += delta.add_edges.len() as isize - delta.remove_edges.len() as isize;
            assert_eq!(delta.set_features.len(), 1);
            assert!(delta.add_edges.iter().all(|&(u, v)| u != v && u < 100 && v < 100));
            assert_eq!(delta.remove_edges.len(), usize::from(i >= EDGE_LIFETIME));
        }
        assert_eq!(live, EDGE_LIFETIME as isize);
    }

    #[test]
    fn hot_pool_is_distinct_and_two_target() {
        let stream = HotStream::new(3, 680);
        assert_eq!(stream.pool.len(), HOT_POOL);
        for (i, a) in stream.pool.iter().enumerate() {
            assert_eq!(a.nodes.len(), 2);
            assert!(stream.pool[i + 1..].iter().all(|b| a != b));
        }
    }
}
