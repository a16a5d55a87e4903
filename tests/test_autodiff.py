"""Finite-difference checks for every engine op and every tape op of
``oracle``, each against an independent central-difference oracle."""

import numpy as np
import pytest

import oracle
from conftest import make_coil_protein
from oracle import check
from protfit import autodiff as ad
from protfit.autodiff import Parameter, Tensor
from protfit.errors import DataError
from protfit.geometry import RbfConfig, build_knn_graph
from protfit.gvp import (FitnessModel, GvpBlock, GvpParams, GvpState, ModelConfig,
                         run_message_passing)


def test_add_mul_broadcast(rng):
    a = Parameter(rng.standard_normal((4, 5)))
    b = Parameter(rng.standard_normal(5))
    c = Parameter(rng.standard_normal((4, 1)))
    check(lambda: ad.tsum(oracle.sub((a + b) * c, oracle.div(a, 2.0 + c * c))),
          [a, b, c])
    # sub and div with the right operand broadcast, then a constant on the
    # left of sub and div, and negation
    for shape in ((5,), (4, 1)):
        y = Parameter(1.0 + rng.random(shape))
        check(lambda: ad.tsum(oracle.sub(a, y) * oracle.div(a, y)), [a, y])
        check(lambda: ad.tsum(oracle.sub(2.0, y) * oracle.div(2.0, y) * -a), [a, y])


def test_transpose(rng):
    a = Parameter(rng.standard_normal((4, 3)))
    b = Parameter(rng.standard_normal((6, 3)))
    assert np.array_equal(oracle.transpose(b).data, b.data.T)

    def fn():
        out = ad.linear_split([a], oracle.transpose(b))
        return ad.tsum(out * out * Tensor(np.arange(6.0)))

    check(fn, [a, b])


def test_channel_mix(rng):
    w = Parameter(rng.standard_normal((4, 3)))
    v = Parameter(rng.standard_normal((5, 3, 3)))
    check(lambda: ad.tsum(oracle.channel_mix(w, [v]) * 0.7), [w, v])


def test_channel_mix_split_equals_concat(rng):
    w = Parameter(rng.standard_normal((4, 5)))
    v1 = Parameter(rng.standard_normal((6, 3, 2)))
    v2 = Parameter(rng.standard_normal((6, 3, 3)))
    merged = oracle.channel_mix(w, [Tensor(np.concatenate([v1.data, v2.data], axis=2))])
    split = oracle.channel_mix(w, [v1, v2])
    assert np.allclose(merged.data, split.data)

    def fn():
        out = oracle.channel_mix(w, [v1, v2])
        return ad.tsum(out * out)

    check(fn, [w, v1, v2])


def test_linear_split_matches_concat(rng):
    a = Parameter(rng.standard_normal((7, 4)))
    b = Parameter(rng.standard_normal((7, 2)))
    w = Parameter(rng.standard_normal((6, 5)))
    bias = Parameter(rng.standard_normal(5))
    merged = np.concatenate([a.data, b.data], axis=1) @ w.data + bias.data
    split = ad.linear_split([a, b], w, bias)
    assert np.allclose(merged, split.data)
    check(lambda: ad.tsum(oracle.sigmoid(ad.linear_split([a, b], w, bias))),
          [a, b, w, bias])


@pytest.mark.parametrize("needs_grad", ["both", "part", "weight"])
def test_backward_twice_doubles_gradients(rng, needs_grad):
    """The fused message step runs one backward pass for all its parents;
    a second backward over the same tape must add the same gradients
    again, whether the state, the weights or both need them."""
    graph = build_knn_graph(rng.standard_normal((9, 3)), 3,
                            rbf=RbfConfig(n_kernels=2))

    def params(v_in, s_in, requires_grad):
        # v_in input channels, 4 scalar and 2 vector output channels
        shapes = dict(w_h=(v_in, v_in), w_mu=(2, v_in), w_m=(s_in + v_in, 4), b_m=4,
                      w_g=(4, 2), b_g=2)
        return GvpParams(**{k: Tensor(rng.standard_normal(shape), requires_grad)
                            for k, shape in shapes.items()})

    message = params(3, 6, needs_grad != "part")   # state, RBF and edge vector
    feedforward = params(2, 4, False)
    state = GvpState(
        Tensor(rng.standard_normal((9, 4)), requires_grad=needs_grad != "weight"),
        Tensor(rng.standard_normal((9, 3, 2)), requires_grad=needs_grad != "weight"))
    out = run_message_passing([GvpBlock(message, feedforward)], graph, state)
    loss = ad.tsum(oracle.sigmoid(out.scalar)) + ad.tsum(out.vector * out.vector)
    leaves = [t for t in (state.scalar, state.vector, *vars(message).values())
              if t.requires_grad]
    loss.backward()
    first = [t.grad.copy() for t in leaves]
    loss.backward()
    for t, g in zip(leaves, first):
        assert np.allclose(t.grad, 2.0 * g, rtol=1e-14, atol=0)
    # 3 * a is rounded, unlike 2 * a, so the scaled pass agrees to rounding
    loss.backward(grad=np.array(3.0))
    for t, g in zip(leaves, first):
        assert np.abs(t.grad - 5.0 * g).max() <= 1e-12 * np.abs(g).max()
    nodes, stack = [], [loss]
    while stack:
        nodes.append(stack.pop())
        stack.extend(nodes[-1]._parents)
    step = [t for t in nodes if callable(t._backward)]   # the message step
    assert len({id(t) for t in step}) == 1
    assert all(t.grad is None for t in nodes if t._backward is not None)


def test_segment_sum_rejects_unsorted_or_out_of_range_ids():
    x = Tensor(np.ones((4, 2)))
    for seg in ([0, 2, 1, 3], [-1, 0, 1, 1], [0, 1, 2, 4]):
        with pytest.raises(DataError, match="sorted"):
            ad.segment_sum(x, np.array(seg), 4)


def test_gather_and_segment_sum(rng):
    x = Parameter(rng.standard_normal((6, 4)))
    idx = np.array([0, 0, 2, 5, 5, 5])
    seg = np.array([0, 0, 1, 3, 3, 3])

    def fn():
        g = ad.gather(x, idx)
        return ad.tsum(ad.segment_sum(g * g, seg, 5))

    check(fn, [x])
    # empty segments stay zero
    out = ad.segment_sum(Tensor(np.ones((3, 2))), np.array([0, 2, 2]), 4)
    assert np.array_equal(out.data, [[1, 1], [0, 0], [2, 2], [0, 0]])


def test_segment_sum_matches_manual(rng):
    x = rng.standard_normal((10, 3))
    seg = np.sort(rng.integers(0, 6, 10))
    out = ad.segment_sum(Tensor(x), seg, 6).data
    manual = np.zeros((6, 3))
    for row, s in zip(x, seg):
        manual[s] += row
    assert np.allclose(out, manual, atol=1e-12)


def test_substitute_rows(rng):
    base = Parameter(rng.standard_normal((5, 3)))
    rows = Parameter(rng.standard_normal((2, 3)))
    idx = np.array([1, 3])
    out = ad.substitute_rows(base, idx, rows)
    assert np.allclose(out.data[idx], rows.data)
    assert np.allclose(out.data[[0, 2, 4]], base.data[[0, 2, 4]])
    check(lambda: ad.tsum(ad.relu(ad.substitute_rows(base, idx, rows))),
          [base, rows])
    # three rows, written in an order that is not sorted
    stacked = Parameter(np.concatenate([rng.standard_normal((1, 3)), rows.data]))
    weights = Tensor(rng.standard_normal((5, 3)))
    check(lambda: ad.tsum(ad.substitute_rows(
        base, np.array([4, 0, 2]), stacked) * weights),
        [base, stacked])


def test_gather_and_substitute_with_empty_index(rng):
    """File-mode training substitutes its mask rows and its random rows
    unconditionally, and either set can be empty."""
    base = Parameter(rng.standard_normal((5, 3)))
    table = Parameter(rng.standard_normal((4, 3)))
    empty = np.empty(0, dtype=np.int64)
    out = ad.substitute_rows(base, empty, ad.gather(table, empty))
    assert np.array_equal(out.data, base.data)
    ad.tsum(out * out).backward()
    assert np.array_equal(table.grad, np.zeros((4, 3)))
    assert np.array_equal(base.grad, 2 * base.data)


def test_select_rc(rng):
    x = Parameter(rng.standard_normal((4, 6)))
    rows = np.array([0, 1, 3])
    cols = np.array([5, 2, 2])
    check(lambda: ad.tsum(ad.select_rc(x, rows, cols)
                          * ad.select_rc(x, rows, cols)), [x])


def test_reductions_and_reshape(rng):
    x = Parameter(rng.standard_normal((3, 4, 2)))
    check(lambda: ad.tsum(ad.tmean(x, axis=1) * 2.0), [x])
    check(lambda: ad.tsum(ad.tsum(x, axis=(1, 2), keepdims=True) * x), [x])
    check(lambda: ad.tsum(ad.reshape(x, (6, 4)) * 0.3), [x])


def test_nonlinearities(rng):
    x = Parameter(rng.standard_normal((5, 4)) + 0.1)
    check(lambda: ad.tsum(ad.relu(x) + oracle.sigmoid(x)), [x])
    y = Parameter(np.abs(rng.standard_normal((3, 3))) + 0.5)
    check(lambda: ad.tsum(oracle.sqrt(y)), [y])


def test_relu_and_sigmoid_keep_the_reference_bit_patterns(rng):
    """relu and sigmoid give the bits of the plain forms
    ``where(x > 0, x, 0)`` and the two-branch logistic, also for -0.0,
    infinities, subnormals, overflow and NaNs of either sign and any
    payload."""
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                     0x7FF8000000000123, 0xFFF8000000000456,
                     0x7FF0000000000001], dtype=np.uint64).view(np.float64)
    x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-320,
                         -1e-320, 709.8, -709.8, 745.2, -745.2, 1e308, -1e308],
                        nans, rng.standard_normal(4000) * 40])
    with np.errstate(all="ignore"):
        relu_ref = np.where(x > 0, x, 0.0)
        sigmoid_ref = np.empty_like(x)
        pos = x >= 0
        sigmoid_ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        sigmoid_ref[~pos] = ex / (1.0 + ex)
        relu, sigmoid = ad.relu(Tensor(x)).data, oracle.sigmoid(Tensor(x)).data
        # the in-place forms the GVP block step uses, on x itself and on a
        # separate output array
        relu_in, sigmoid_in = x.copy(), x.copy()
        assert ad.relu_data(relu_in, out=relu_in) is relu_in
        assert ad.sigmoid_data(sigmoid_in, out=sigmoid_in) is sigmoid_in
        relu_out, sigmoid_out = np.empty_like(x), np.empty_like(x)
        ad.relu_data(x, out=relu_out)
        ad.sigmoid_data(x, out=sigmoid_out)
    for got in (relu, relu_in, relu_out):
        assert np.array_equal(got.view(np.int64), relu_ref.view(np.int64))
    for got in (sigmoid, sigmoid_in, sigmoid_out):
        assert np.array_equal(got.view(np.int64), sigmoid_ref.view(np.int64))


def test_log_softmax_rows(rng):
    x = Parameter(rng.standard_normal((6, 9)) * 3)
    out = ad.log_softmax(x)
    assert np.allclose(np.exp(out.data).sum(axis=1), 1.0, atol=1e-12)
    tgt = np.arange(6) % 9
    check(lambda: -ad.tmean(ad.select_rc(ad.log_softmax(x),
                                         np.arange(6), tgt)), [x])


def test_vec_norm_smooth_at_zero():
    v = Parameter(np.zeros((2, 3, 3)))
    out = oracle.vec_norm(v)
    ad.tsum(out).backward()
    assert np.isfinite(v.grad).all()
    assert np.allclose(out.data, np.sqrt(1e-8))


def test_shared_node_accumulates():
    x = Parameter(np.array([3.0]))
    y = x + x
    y.backward()
    assert x.grad[0] == 2.0


def test_vjp_not_called_for_parent_without_grad(rng):
    x = Parameter(rng.standard_normal(3))
    const = Tensor(rng.standard_normal(3))

    def never(g):
        raise AssertionError("VJP of a parent that needs no gradient ran")

    out = ad._make(x.data * const.data, (const, x),
                   (never, lambda g: g * const.data))
    ad.tsum(out).backward()
    assert np.array_equal(x.grad, const.data)
    assert const.grad is None


def test_vjp_count_must_match_parents(rng):
    x = Parameter(rng.standard_normal(3))
    y = Parameter(rng.standard_normal(3))
    short = ad._make(x.data + y.data, (x, y), (lambda g: g,))
    with pytest.raises(ValueError, match="zip"):
        ad.tsum(short).backward()
    long = ad._make(2.0 * x.data, (x,), (lambda g: 2.0 * g, lambda g: g))
    with pytest.raises(ValueError, match="zip"):
        ad.tsum(long).backward()


def test_backward_scale_linearity(rng):
    x = Parameter(rng.standard_normal((4, 3)))
    loss = ad.tsum(oracle.sigmoid(x) * x)
    loss.backward()
    g1 = x.grad.copy()
    x.grad = None
    loss2 = ad.tsum(oracle.sigmoid(x) * x)
    loss2.backward(grad=np.array(2.0))
    assert np.array_equal(x.grad, 2.0 * g1)


# ---------------------------------------------------------------------------
# no_grad
# ---------------------------------------------------------------------------

def test_no_grad_outputs_record_no_tape(rng):
    a = Parameter(rng.standard_normal((4, 3)))
    b = Parameter(rng.standard_normal((3, 5)))
    with ad.no_grad():
        out = ad.log_softmax(ad.relu(ad.linear_split([a], b)) + 1.0)
        total = ad.tsum(out)
    for t in (out, total):
        assert t.requires_grad is False
        assert t._parents == ()
        assert t._backward is None
    outside = ad.tsum(ad.linear_split([a], b))
    assert outside.requires_grad and outside._parents


def test_no_grad_restores_mode_when_body_raises():
    protein = make_coil_protein(6, seed=1)
    model = FitnessModel(ModelConfig(mode="s2f", scalar_dim=8, vector_dim=2,
                                     structure_layers=1, embed_dim=8))
    with pytest.raises(DataError, match="out of range"):
        with ad.no_grad():
            model.forward_logits(protein, [protein.n_residues])
    rows = model.forward_logits(protein, [2])
    assert rows.requires_grad and rows._parents
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert not model.forward_logits(protein, [2]).requires_grad


def test_backward_after_no_grad_matches_plain_run(rng):
    x0 = rng.standard_normal((5, 4))
    w0 = rng.standard_normal((4, 3))

    def grads(enter_no_grad):
        x, w = Parameter(x0.copy()), Parameter(w0.copy())
        if enter_no_grad:
            with ad.no_grad():
                ad.tsum(oracle.sigmoid(ad.linear_split([x], w)))
        loss = ad.tsum(ad.log_softmax(oracle.sigmoid(ad.linear_split([x], w))) * 0.5)
        loss.backward()
        return x.grad, w.grad

    plain, after = grads(False), grads(True)
    for g_plain, g_after in zip(plain, after):
        assert np.array_equal(g_plain, g_after)
