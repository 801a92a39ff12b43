"""Layer constructors: lower each DNN layer family to kernel sequences.

Every function returns a fully-populated :class:`~repro.graph.layer.Layer`
whose kernel lists reflect how the 2017-era frameworks actually executed the
layer (e.g. a ``dynamic_rnn``-style LSTM launches one small GEMM plus one
pointwise kernel per timestep — the mechanism behind the paper's RNN
utilization findings).
"""

from __future__ import annotations

from dataclasses import replace

from repro.graph.layer import Layer
import repro.kernels.attention as attention_kernels
import repro.kernels.elementwise as ew
import repro.kernels.misc as misc
import repro.kernels.norm as norm
import repro.kernels.rnn as rnn
from repro.kernels.conv import (
    ConvShape,
    conv2d_backward_data,
    conv2d_backward_filter,
    conv2d_forward,
    conv_workspace_bytes,
)
from repro.kernels.gemm import gemm


def conv_layer(
    name: str,
    shape: ConvShape,
    bias: bool = False,
    algorithm: str | None = None,
    first_layer: bool = False,
) -> Layer:
    """2-D convolution with training-time backward passes.

    ``first_layer`` skips the backward-data kernel (no gradient flows into
    the input images).
    """
    forward = [conv2d_forward(shape, algorithm)]
    if bias:
        forward.append(ew.bias_add(shape.output_elements))
    backward = [conv2d_backward_filter(shape, algorithm)]
    if not first_layer:
        backward.append(conv2d_backward_data(shape, algorithm))
    if bias:
        backward.append(
            ew.elementwise(
                shape.output_elements,
                flops_per_element=1.0,
                name="bias_grad_reduce_kernel",
            )
        )
    return Layer(
        name=name,
        kind="conv",
        weight_elements=shape.weight_elements + (shape.out_channels if bias else 0),
        output_elements=shape.output_elements,
        workspace_bytes=conv_workspace_bytes(shape, algorithm),
        forward_kernels=forward,
        backward_kernels=backward,
    )


def batchnorm_layer(name: str, elements: int, channels: int) -> Layer:
    """Batch normalization (scale + shift parameters per channel).

    The stash is half the map: frameworks recycle roughly every other BN
    output buffer once the downstream (in-place) activation has consumed it.
    """
    return Layer(
        name=name,
        kind="batchnorm",
        weight_elements=2 * channels,
        output_elements=elements // 2,
        forward_kernels=[norm.batchnorm_forward(elements, channels)],
        backward_kernels=[norm.batchnorm_backward(elements, channels)],
    )


def layernorm_layer(name: str, elements: int, features: int) -> Layer:
    """Layer normalization (Transformer blocks)."""
    return Layer(
        name=name,
        kind="layernorm",
        weight_elements=2 * features,
        output_elements=elements,
        forward_kernels=[norm.layernorm_forward(elements)],
        backward_kernels=[norm.layernorm_backward(elements)],
    )


def activation_layer(name: str, elements: int, kind: str = "relu") -> Layer:
    """Pointwise nonlinearity (executed in place, as the frameworks do)."""
    return Layer(
        name=name,
        kind="activation",
        output_elements=elements,
        forward_kernels=[ew.activation_forward(elements, kind)],
        backward_kernels=[ew.activation_backward(elements, kind)],
        inplace=True,
    )


def pool_layer(name: str, in_elements: int, out_elements: int, window: int = 9) -> Layer:
    """Max/average pooling."""
    return Layer(
        name=name,
        kind="pooling",
        output_elements=out_elements,
        forward_kernels=[ew.pooling_forward(in_elements, out_elements, window)],
        backward_kernels=[ew.pooling_backward(in_elements, out_elements, window)],
    )


def dropout_layer(name: str, elements: int) -> Layer:
    """Dropout (stashes its mask alongside the output)."""
    return Layer(
        name=name,
        kind="dropout",
        output_elements=2 * elements,  # output + mask
        forward_kernels=[ew.dropout(elements)],
        backward_kernels=[
            ew.elementwise(elements, reads=2, name="dropout_bw_kernel")
        ],
    )


def residual_add_layer(name: str, elements: int) -> Layer:
    """Residual shortcut addition (ResNet / Transformer), in place."""
    return Layer(
        name=name,
        kind="elementwise",
        output_elements=elements,
        inplace=True,
        forward_kernels=[
            ew.elementwise(elements, reads=2, name="residual_add_kernel")
        ],
        backward_kernels=[
            ew.elementwise(elements, reads=1, writes=2, name="residual_add_bw_kernel")
        ],
    )


def dense_layer(
    name: str, batch: int, in_features: int, out_features: int, bias: bool = True
) -> Layer:
    """Fully-connected layer: one forward GEMM, two backward GEMMs."""
    out_elements = batch * out_features
    forward = [gemm(batch, out_features, in_features)]
    if bias:
        forward.append(ew.bias_add(out_elements, name="bias_add_1d_kernel"))
    backward = [
        gemm(batch, in_features, out_features, name="sgemm_dgrad"),  # dX = dY @ W^T
        gemm(in_features, out_features, batch, name="sgemm_wgrad"),  # dW = X^T @ dY
    ]
    weights = in_features * out_features + (out_features if bias else 0)
    return Layer(
        name=name,
        kind="dense",
        weight_elements=weights,
        output_elements=out_elements,
        forward_kernels=forward,
        backward_kernels=backward,
    )


def embedding_layer(name: str, tokens: int, vocab: int, embed_dim: int) -> Layer:
    """Token embedding table."""
    return Layer(
        name=name,
        kind="embedding",
        weight_elements=vocab * embed_dim,
        output_elements=tokens * embed_dim,
        forward_kernels=[misc.embedding_lookup(tokens, embed_dim)],
        backward_kernels=[misc.embedding_lookup(tokens, embed_dim, backward=True)],
    )


def _recurrent_layer(
    name: str,
    kind: str,
    batch: int,
    seq_len: int,
    input_size: int,
    hidden: int,
    gates: int,
    pointwise_factory,
    bidirectional: bool = False,
    stepwise_host_sync: bool = False,
) -> Layer:
    """Shared lowering for LSTM/GRU/vanilla-RNN layers.

    Matches the ``dynamic_rnn`` execution style of the paper's NMT/Sockeye
    implementations: per timestep, one GEMM over the concatenated
    ``[input, hidden]`` vector producing all gate pre-activations, plus one
    pointwise cell-update kernel.  Backward mirrors it with transposed GEMMs
    (dgrad + wgrad) and the backward pointwise kernel.  ``seq_len`` small
    GEMMs per direction per pass are what keep these layers launch-bound.
    """
    if seq_len <= 0:
        raise ValueError("sequence length must be positive")
    directions = 2 if bidirectional else 1
    k_dim = input_size + hidden
    # Every step launches the same five kernels, so each is built once and
    # the stream holds ``directions * seq_len`` references to it.
    step_gemm = gemm(batch, gates * hidden, k_dim, name="rnn_step_sgemm")
    step_fw = pointwise_factory(batch, hidden, backward=False)
    step_bw = pointwise_factory(batch, hidden, backward=True)
    if stepwise_host_sync:
        # dynamic_rnn-style loops re-enter host control flow after every
        # cell update, forward and backward.
        step_fw = replace(step_fw, host_sync=True)
        step_bw = replace(step_bw, host_sync=True)
    step_dgrad = gemm(batch, k_dim, gates * hidden, name="rnn_step_sgemm_dgrad")
    step_wgrad = gemm(k_dim, gates * hidden, batch, name="rnn_step_sgemm_wgrad")
    steps = directions * seq_len
    forward = [step_gemm, step_fw] * steps
    backward = [step_bw, step_dgrad, step_wgrad] * steps
    weights = directions * (k_dim * gates * hidden + gates * hidden)
    # Stash per step: the concatenated [input, hidden] GEMM operand, gate
    # values both before and after their nonlinearities, and the cell/state
    # intermediates (new cell, tanh(cell), hidden, masks) — unfused cells
    # keep all of them live for backward.
    stash_per_step = k_dim + 2 * gates * hidden + 6 * hidden
    output_elements = directions * seq_len * batch * stash_per_step
    return Layer(
        name=name,
        kind=kind,
        weight_elements=weights,
        output_elements=output_elements,
        forward_kernels=forward,
        backward_kernels=backward,
        attributes={
            "batch": batch,
            "seq_len": seq_len,
            "input_size": input_size,
            "hidden": hidden,
            "gates": gates,
            "directions": directions,
        },
    )


def lstm_layer(
    name: str,
    batch: int,
    seq_len: int,
    input_size: int,
    hidden: int,
    bidirectional: bool = False,
) -> Layer:
    """LSTM layer (4 gates)."""
    return _recurrent_layer(
        name,
        "lstm",
        batch,
        seq_len,
        input_size,
        hidden,
        gates=4,
        pointwise_factory=rnn.lstm_cell_pointwise,
        bidirectional=bidirectional,
        stepwise_host_sync=True,
    )


def gru_layer(
    name: str,
    batch: int,
    seq_len: int,
    input_size: int,
    hidden: int,
    bidirectional: bool = False,
) -> Layer:
    """GRU layer (3 gates)."""
    return _recurrent_layer(
        name,
        "gru",
        batch,
        seq_len,
        input_size,
        hidden,
        gates=3,
        pointwise_factory=rnn.gru_cell_pointwise,
        bidirectional=bidirectional,
        stepwise_host_sync=True,
    )


def vanilla_rnn_layer(
    name: str,
    batch: int,
    seq_len: int,
    input_size: int,
    hidden: int,
    bidirectional: bool = False,
) -> Layer:
    """Plain tanh/ReLU recurrent layer (Deep Speech 2 style)."""
    return _recurrent_layer(
        name,
        "rnn",
        batch,
        seq_len,
        input_size,
        hidden,
        gates=1,
        pointwise_factory=rnn.vanilla_rnn_pointwise,
        bidirectional=bidirectional,
    )


def attention_layer(
    name: str,
    batch: int,
    heads: int,
    seq_q: int,
    seq_k: int,
    model_dim: int,
) -> Layer:
    """Multi-head scaled dot-product attention block (projections included).

    Lowered to four large projection GEMMs plus two *batched* GEMMs and a
    fused softmax — large launches, hence the high GPU utilization the paper
    observes for the Transformer.
    """
    if model_dim % heads != 0:
        raise ValueError(f"model_dim {model_dim} not divisible by heads {heads}")
    head_dim = model_dim // heads
    batch_heads = batch * heads
    tokens_q = batch * seq_q
    tokens_k = batch * seq_k
    forward = [
        gemm(tokens_q, model_dim, model_dim, name="attention_q_proj_sgemm"),
        gemm(tokens_k, model_dim, model_dim, name="attention_k_proj_sgemm"),
        gemm(tokens_k, model_dim, model_dim, name="attention_v_proj_sgemm"),
        attention_kernels.attention_scores(batch_heads, seq_q, seq_k, head_dim),
        attention_kernels.attention_softmax(batch_heads, seq_q, seq_k),
        attention_kernels.attention_context(batch_heads, seq_q, seq_k, head_dim),
        gemm(tokens_q, model_dim, model_dim, name="attention_out_proj_sgemm"),
    ]
    backward = [
        gemm(tokens_q, model_dim, model_dim, name="attention_out_proj_sgemm_bw").scaled(
            2.0
        ),
        attention_kernels.attention_context(
            batch_heads, seq_q, seq_k, head_dim, backward=True
        ),
        attention_kernels.attention_softmax(batch_heads, seq_q, seq_k),
        attention_kernels.attention_scores(
            batch_heads, seq_q, seq_k, head_dim, backward=True
        ),
        gemm(tokens_q, model_dim, model_dim, name="attention_q_proj_sgemm_bw").scaled(
            2.0
        ),
        gemm(tokens_k, model_dim, model_dim, name="attention_k_proj_sgemm_bw").scaled(
            2.0
        ),
        gemm(tokens_k, model_dim, model_dim, name="attention_v_proj_sgemm_bw").scaled(
            2.0
        ),
    ]
    weights = 4 * model_dim * model_dim
    # Stash: Q, K, V, scores, softmax, context.
    output_elements = (
        (tokens_q + 2 * tokens_k) * model_dim
        + 2 * batch_heads * seq_q * seq_k
        + tokens_q * model_dim
    )
    return Layer(
        name=name,
        kind="attention",
        weight_elements=weights,
        output_elements=output_elements,
        forward_kernels=forward,
        backward_kernels=backward,
    )


def feedforward_layer(
    name: str, tokens: int, model_dim: int, inner_dim: int
) -> Layer:
    """Transformer position-wise feed-forward (two GEMMs + ReLU)."""
    forward = [
        gemm(tokens, inner_dim, model_dim, name="ffn_sgemm_1"),
        ew.activation_forward(tokens * inner_dim, "relu"),
        gemm(tokens, model_dim, inner_dim, name="ffn_sgemm_2"),
    ]
    backward = [
        gemm(tokens, inner_dim, model_dim, name="ffn_sgemm_2_bw").scaled(2.0),
        ew.activation_backward(tokens * inner_dim, "relu"),
        gemm(tokens, model_dim, inner_dim, name="ffn_sgemm_1_bw").scaled(2.0),
    ]
    return Layer(
        name=name,
        kind="feedforward",
        weight_elements=2 * model_dim * inner_dim + model_dim + inner_dim,
        output_elements=tokens * (inner_dim + model_dim),
        forward_kernels=forward,
        backward_kernels=backward,
    )


def softmax_cross_entropy_kernels(batch: int, classes: int) -> list:
    """Loss kernels appended to a graph's ``extra_kernels``."""
    return [
        misc.cross_entropy_loss(batch, classes),
        misc.cross_entropy_loss(batch, classes, backward=True),
    ]


def ctc_loss_kernels(batch: int, time_steps: int, labels: int, vocab: int) -> list:
    """CTC loss kernels (Deep Speech 2)."""
    return [
        misc.ctc_loss(batch, time_steps, labels, vocab),
        misc.ctc_loss(batch, time_steps, labels, vocab),  # beta/backward pass
    ]
