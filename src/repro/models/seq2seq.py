"""Seq2Seq neural machine translation (NMT on TensorFlow, Sockeye on MXNet).

An encoder-decoder LSTM with Luong attention on IWSLT'15 English-Vietnamese:
2 encoder layers + 3 decoder layers (5 LSTM layers total, matching Table 2),
hidden size 512, vocabulary 17,188 (Table 3).  Sentences average 20-30
tokens; bucketed batches pad to ``SEQ_LEN``.

Performance-defining properties (paper Observations 2, 5, 7):

- per-timestep small GEMMs keep the GPU launch-bound at every batch size;
- the decoder's attention materializes a ``batch x T_dec x T_enc x hidden``
  tensor of weighted encoder states and stashes per-step vocabulary logits,
  which dominates the memory footprint (89% feature maps for Sockeye).
"""

from __future__ import annotations

from repro.graph.layer import Layer, LayerGraph
from repro.graph.lowering import (
    dropout_layer,
    embedding_layer,
    lstm_layer,
    softmax_cross_entropy_kernels,
)
import repro.kernels.elementwise as ew
from repro.kernels.gemm import gemm

VOCAB_SIZE = 17188
HIDDEN = 512
EMBED = 512
ENCODER_LAYERS = 2
DECODER_LAYERS = 3
#: Padded bucket length (IWSLT sentences run 20-30 words; subword units and
#: bucket padding push the executed length higher).
SEQ_LEN = 30
#: Average source tokens per host-side sample (drives the H2D copy size).
_TOKENS_PER_SAMPLE = 2 * SEQ_LEN  # source + target


def _attention_decoder_step_layer(name: str, batch: int, seq_enc: int, seq_dec: int, hidden: int) -> Layer:
    """Luong attention applied at every decoder step.

    Per step: score GEMM against all encoder states, softmax, context
    reduction, and the attentional combination GEMM.  The implementation
    stashes the weighted encoder states for backward — the
    ``batch x T_dec x T_enc x hidden`` materialization responsible for the
    Seq2Seq memory blow-up.
    """
    # The same eight kernels run at every step: build them once and repeat
    # the references.
    forward = [
        gemm(batch, seq_enc, hidden, name="attn_score_sgemm"),
        ew.softmax(batch, seq_enc),
        gemm(batch, hidden, seq_enc, name="attn_context_sgemm"),
        gemm(batch, hidden, 2 * hidden, name="attn_combine_sgemm"),
    ] * seq_dec
    backward = [
        gemm(batch, 2 * hidden, hidden, name="attn_combine_sgemm_bw"),
        gemm(batch, seq_enc, hidden, name="attn_context_sgemm_bw"),
        ew.softmax(batch, seq_enc),
        gemm(batch, hidden, seq_enc, name="attn_score_sgemm_bw"),
    ] * seq_dec
    # Stash: per-step weighted encoder states (T_enc x hidden), kept for
    # both the forward product and its backward counterpart, plus context,
    # combined output and alignment weights.
    stash = seq_dec * batch * (2 * seq_enc * hidden + 2 * hidden + seq_enc)
    return Layer(
        name=name,
        kind="attention",
        weight_elements=2 * hidden * hidden + hidden,
        output_elements=stash,
        forward_kernels=forward,
        backward_kernels=backward,
    )


def _output_projection_layer(name: str, batch: int, seq_dec: int, hidden: int, vocab: int) -> Layer:
    """Per-step projection to the vocabulary; logits are stashed for the
    sequence loss (another large feature-map consumer)."""
    forward = [gemm(batch * seq_dec, vocab, hidden, name="logits_sgemm")]
    backward = [
        gemm(batch * seq_dec, hidden, vocab, name="logits_sgemm_dgrad"),
        gemm(hidden, vocab, batch * seq_dec, name="logits_sgemm_wgrad"),
    ]
    return Layer(
        name=name,
        kind="dense",
        weight_elements=hidden * vocab,
        # Four vocab-sized tensors stay live: logits, the log-softmax
        # intermediate, the probability tensor, and the loss gradient.
        output_elements=4 * batch * seq_dec * vocab,
        forward_kernels=forward,
        backward_kernels=backward,
    )


def build_seq2seq(
    batch_size: int,
    hidden: int = HIDDEN,
    seq_len: int = SEQ_LEN,
    encoder_layers: int = ENCODER_LAYERS,
    decoder_layers: int = DECODER_LAYERS,
    model_name: str = "Seq2Seq",
    feature_map_overallocation: float = 1.0,
) -> LayerGraph:
    """Build the NMT/Sockeye-style attentional encoder-decoder."""
    graph = LayerGraph(
        model_name=model_name,
        batch_size=batch_size,
        input_bytes=batch_size * _TOKENS_PER_SAMPLE * 4,
        feature_map_overallocation=feature_map_overallocation,
    )
    graph.add(
        embedding_layer("src_embedding", batch_size * seq_len, VOCAB_SIZE, EMBED)
    )
    size_in = EMBED
    for index in range(encoder_layers):
        bidirectional = index == 0  # first encoder layer is bidirectional
        graph.add(
            lstm_layer(
                f"encoder_lstm{index}",
                batch_size,
                seq_len,
                size_in,
                hidden,
                bidirectional=bidirectional,
            )
        )
        graph.add(
            dropout_layer(f"encoder_dropout{index}", batch_size * seq_len * hidden)
        )
        size_in = hidden * (2 if bidirectional else 1)

    graph.add(
        embedding_layer("tgt_embedding", batch_size * seq_len, VOCAB_SIZE, EMBED)
    )
    size_in = EMBED
    for index in range(decoder_layers):
        graph.add(
            lstm_layer(
                f"decoder_lstm{index}", batch_size, seq_len, size_in, hidden
            )
        )
        graph.add(
            dropout_layer(f"decoder_dropout{index}", batch_size * seq_len * hidden)
        )
        size_in = hidden

    graph.add(
        _attention_decoder_step_layer(
            "luong_attention", batch_size, seq_len, seq_len, hidden
        )
    )
    graph.add(
        _output_projection_layer(
            "output_projection", batch_size, seq_len, hidden, VOCAB_SIZE
        )
    )
    graph.extra_kernels = softmax_cross_entropy_kernels(
        batch_size * seq_len, VOCAB_SIZE
    )
    return graph


def build_nmt(batch_size: int) -> LayerGraph:
    """The TensorFlow NMT implementation of Seq2Seq.

    NMT's single ``dynamic_rnn`` graph over-allocates moderately (TensorArray
    slack for the longest sentence in a bucket).
    """
    return build_seq2seq(
        batch_size, model_name="NMT", feature_map_overallocation=1.55
    )


def build_sockeye(batch_size: int) -> LayerGraph:
    """The MXNet Sockeye implementation of Seq2Seq.

    Sockeye's bucketing module instantiates an executor per bucket length and
    sizes the shared activation pool for the largest — the reason it tops out
    at mini-batch 64 on an 8 GB card where NMT reaches 128 (paper Obs. 3).
    """
    return build_seq2seq(
        batch_size, model_name="Sockeye", feature_map_overallocation=2.6
    )
