//! Per-layer forward/backward ledger: best-of-k milliseconds of each
//! `pipefisher-nn` layer's forward and backward at the end-to-end
//! benchmark's two model scales (256 tokens = 8 sequences × 32, 4 heads;
//! small: d_model 64, d_ff 128; mid: d_model 96, d_ff 384), and of the
//! whole pretraining step. Writes `BENCH_nn.json` at the repo root.
//!
//! Every layer runs on the calling thread, as in the benchmark. Only the
//! crate's public API is called, so the same file builds against an older
//! checkout with the same `Layer` signature (forward state on a `Tape`)
//! and gives the "before" column of a comparison.

use pipefisher_bench::{host_cores, rand_matrix};
use pipefisher_nn::{
    Activation, ActivationKind, BertConfig, BertForPreTraining, FeedForward, ForwardCtx, Layer,
    LayerNorm, Linear, MultiHeadAttention, PreTrainingBatch, StagedBert, Tape, TransformerBlock,
    IGNORE_INDEX,
};
use pipefisher_tensor::kernel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 20;
const WARMUP: usize = 3;
const SEQ: usize = 32;
const BATCH: usize = 8;
const TOKENS: usize = SEQ * BATCH;
const HEADS: usize = 4;
const VOCAB: usize = 68;

/// Best and median milliseconds of one phase over the timed reps.
struct Phase {
    best: f64,
    /// `(median − best) / best`.
    spread: f64,
}

impl Phase {
    fn of(mut ms: Vec<f64>) -> Phase {
        ms.sort_by(f64::total_cmp);
        let best = ms[0];
        Phase {
            best,
            spread: (ms[ms.len() / 2] - best) / best,
        }
    }
}

/// Times `WARMUP` untimed then `REPS` timed calls of `fwd` followed by
/// `bwd` on the same state; `fwd`'s input is made, and outputs are
/// dropped, outside the timed spans.
fn time_pair<S: ?Sized, I, T, U>(
    state: &mut S,
    input: impl Fn() -> I,
    fwd: impl Fn(&mut S, I) -> T,
    bwd: impl Fn(&mut S) -> U,
) -> (Phase, Phase) {
    for _ in 0..WARMUP {
        black_box(fwd(state, input()));
        black_box(bwd(state));
    }
    let (mut f, mut b) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for _ in 0..REPS {
        let x = input();
        let t0 = Instant::now();
        let y = black_box(fwd(state, x));
        let t1 = Instant::now();
        let dx = black_box(bwd(state));
        let t2 = Instant::now();
        drop((y, dx));
        f.push((t1 - t0).as_secs_f64() * 1e3);
        b.push((t2 - t1).as_secs_f64() * 1e3);
    }
    (Phase::of(f), Phase::of(b))
}

/// One layer's forward and backward on a fixed `TOKENS × d_in` input
/// and `TOKENS × d_out` upstream gradient.
fn time_layer(layer: &mut dyn Layer, d_in: usize, d_out: usize) -> (Phase, Phase) {
    let x = rand_matrix(TOKENS, d_in, 1);
    let dout = rand_matrix(TOKENS, d_out, 2);
    let tape = &mut Tape::new(ForwardCtx::train().with_seq_len(SEQ));
    time_pair(
        &mut (layer, tape),
        || x.clone(),
        |(l, tape), x| l.forward(x, tape),
        |(l, tape)| l.backward(&dout, tape),
    )
}

/// A fixed pretraining batch: every seventh token masked, alternating
/// next-sentence labels.
fn batch() -> PreTrainingBatch {
    let token_ids: Vec<usize> = (0..TOKENS).map(|i| (i * 37 + 11) % VOCAB).collect();
    PreTrainingBatch {
        segment_ids: (0..TOKENS)
            .map(|i| usize::from(i % SEQ >= SEQ / 2))
            .collect(),
        mlm_targets: token_ids
            .iter()
            .enumerate()
            .map(|(i, &t)| if i % 7 == 3 { t as i64 } else { IGNORE_INDEX })
            .collect(),
        nsp_targets: (0..BATCH).map(|b| (b % 2) as i64).collect(),
        token_ids,
        seq: SEQ,
    }
}

/// The pretraining step's two halves: the single stage's forward and
/// backward, the two calls `BertForPreTraining::train_step` makes.
fn time_train_step(cfg: BertConfig) -> (Phase, Phase) {
    let model = BertForPreTraining::new(cfg, 0.0, &mut StdRng::seed_from_u64(7));
    let mut staged = StagedBert::from_model(model, 1);
    let batch = batch();
    let ctx = ForwardCtx::train();
    time_pair(
        staged.stage_mut(0),
        || (),
        |s, ()| s.forward(None, &batch, &ctx),
        |s| s.backward(None, &batch),
    )
}

/// Prints one ledger row and returns it as a JSON object line.
fn row(scale: &str, layer: &str, shape: &str, (f, b): (Phase, Phase)) -> String {
    println!(
        "{scale:5} {layer:18} {shape:28} fwd {:8.4} ms (+{:4.1}%)  bwd {:8.4} ms (+{:4.1}%)",
        f.best,
        f.spread * 100.0,
        b.best,
        b.spread * 100.0
    );
    format!(
        concat!(
            "    {{\"scale\": \"{}\", \"layer\": \"{}\", \"shape\": \"{}\", ",
            "\"fwd_ms\": {:.4}, \"fwd_spread\": {:.3}, ",
            "\"bwd_ms\": {:.4}, \"bwd_spread\": {:.3}}}"
        ),
        scale, layer, shape, f.best, f.spread, b.best, b.spread
    )
}

fn main() {
    let mut rows = Vec::new();
    for (scale, d, ff) in [("small", 64usize, 128usize), ("mid", 96, 384)] {
        let mut rng = StdRng::seed_from_u64(11);
        let mut proj = Linear::new_bert("proj", d, d, &mut rng);
        let mut fc1 = Linear::new_bert("fc1", d, ff, &mut rng);
        let mut fc2 = Linear::new_bert("fc2", ff, d, &mut rng);
        let mut gelu = Activation::new(ActivationKind::Gelu);
        let mut ln = LayerNorm::new("ln", d);
        let mut attn = MultiHeadAttention::new("attn", d, HEADS, &mut rng);
        let mut ffn = FeedForward::new("ff", d, ff, &mut rng);
        let mut block = TransformerBlock::new("block", d, ff, HEADS, &mut rng);
        let cases: [(&str, &mut dyn Layer, usize, usize); 8] = [
            ("Linear", &mut proj, d, d),
            ("Linear", &mut fc1, d, ff),
            ("Linear", &mut fc2, ff, d),
            ("Activation(Gelu)", &mut gelu, ff, ff),
            ("LayerNorm", &mut ln, d, d),
            ("MultiHeadAttention", &mut attn, d, d),
            ("FeedForward", &mut ffn, d, d),
            ("TransformerBlock", &mut block, d, d),
        ];
        for (layer, state, d_in, d_out) in cases {
            let shape = format!("{TOKENS}x{d_in} -> {TOKENS}x{d_out}");
            rows.push(row(scale, layer, &shape, time_layer(state, d_in, d_out)));
        }
        let cfg = BertConfig {
            d_model: d,
            d_ff: ff,
            ..BertConfig::mini(VOCAB, SEQ)
        };
        let shape = format!("{TOKENS} tokens, {} blocks", cfg.n_layers);
        rows.push(row(scale, "train_step", &shape, time_train_step(cfg)));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"nn\",\n",
            "  \"host_cores\": {},\n",
            "  \"simd\": \"{}\",\n",
            "  \"reps\": {},\n",
            "  \"note\": \"single-core forward and backward ms per layer, ",
            "best of {} reps after {} warm-up reps; spread = (median - best) / best; ",
            "256 tokens (8 x 32), 4 heads, small = d_model 64 / d_ff 128, mid = 96 / 384, the ",
            "end-to-end benchmark's two scales; capture off; train_step = the single stage's ",
            "forward and backward (what BertForPreTraining::train_step runs), 4 blocks, ",
            "vocabulary 68.\",\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        host_cores(),
        kernel::simd_name(),
        REPS,
        REPS,
        WARMUP,
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_nn.json");
    std::fs::write(path, &json).expect("write BENCH_nn.json");
    println!("wrote {path}");
}
