import dataclasses

import numpy as np
import pytest

from onlinenorm.cli import write_csv
from onlinenorm.datasets import Dataset, DatasetSpec, generate_dataset
from onlinenorm.net import (
    Conv2D,
    DenseLayer,
    DivergenceError,
    MetricsRecord,
    Mlp,
    Params,
    TrainConfig,
    evaluate_accuracy,
    scale_hyperparams,
    sgd_momentum_step,
    softmax_xent_backward,
    softmax_xent_forward,
    train,
)
from onlinenorm.online import OnlineNormState, forward_inference, forward_sample
from onlinenorm.selftest import central_differences
from onlinenorm.tensor import ShapeError, make_rng

from helpers import logistic_oracle, traced_peak


# ------------------------------------------------------------------- dense


def test_dense_identity_passthrough():
    layer = DenseLayer(3, 3, make_rng(0))
    layer.w[:] = np.eye(3)
    x = np.array([[1.0, -2.0, 0.5]])
    assert np.array_equal(layer.forward(x), x)


def test_dense_zero_input_gives_bias():
    layer = DenseLayer(2, 3, make_rng(0))
    layer.b[:] = np.array([1.0, 2.0, 3.0])
    out = layer.forward(np.zeros((1, 2)))
    assert np.array_equal(out[0], layer.b)


def test_dense_gradients_match_finite_differences():
    rng = make_rng(60)
    layer = DenseLayer(3, 5, rng)
    x = rng.normal(size=(4, 3))
    loss_w = rng.normal(size=(4, 5))

    def loss():
        return float((layer.forward(x) * loss_w).sum())

    layer.forward(x)
    layer.backward(loss_w)
    h = 1e-6
    for p, g in ((layer.w, layer.d_w), (layer.b, layer.d_b)):
        for i in range(p.size):
            orig = p.flat[i]
            p.flat[i] = orig + h
            up = loss()
            p.flat[i] = orig - h
            dn = loss()
            p.flat[i] = orig
            assert g.flat[i] == pytest.approx((up - dn) / (2 * h), rel=1e-7, abs=1e-7)


def test_dense_shape_errors():
    layer = DenseLayer(3, 2, make_rng(0))
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((1, 4)))
    layer.forward(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        layer.backward(np.zeros((2, 3)))


def test_dense_backward_consumes_its_record_and_evaluation_keeps_none():
    rng = make_rng(61)
    layer = DenseLayer(3, 2, rng)
    x, g = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    layer.forward(x)
    want = layer.backward(g), layer.d_w.copy(), layer.d_b.copy()
    with pytest.raises(RuntimeError, match="backward before forward"):
        layer.backward(g)
    layer.d_w[...] = layer.d_b[...] = 0.0
    layer.forward(x)
    layer.forward(rng.normal(size=(5, 3)), training=False)
    got = layer.backward(g), layer.d_w, layer.d_b
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


# --------------------------------------------------------------- optimizer


def test_sgd_zero_momentum_is_plain_sgd():
    layer = DenseLayer(2, 2, make_rng(0))
    params = Params([layer])
    layer.w[:] = np.array([[1.0, 2.0], [3.0, 4.0]])
    layer.d_w[:] = np.array([[0.5, 0.5], [0.5, 0.5]])
    before = layer.w.copy()
    grad = layer.d_w.copy()
    sgd_momentum_step(params, eta=0.1, momentum=0.0, l2=0.0)
    assert np.allclose(layer.w, before - 0.1 * grad, atol=1e-16)
    assert np.array_equal(layer.d_w, np.zeros((2, 2)))  # cleared


def test_sgd_pure_decay_is_geometric():
    layer = DenseLayer(2, 2, make_rng(0))
    params = Params([layer])
    layer.w[:] = np.array([[1.0, -2.0], [0.5, 4.0]])
    w0 = layer.w.copy()
    eta, l2 = 0.1, 0.01
    for k in range(1, 6):
        sgd_momentum_step(params, eta=eta, momentum=0.0, l2=l2)
        assert np.allclose(layer.w, w0 * (1 - eta * l2) ** k, rtol=1e-13)


def test_sgd_momentum_matches_hand_unrolled_recurrence():
    rng = make_rng(61)
    layer = DenseLayer(3, 2, rng)
    params = Params([layer])
    eta, mu, l2 = 0.05, 0.9, 0.01
    w = layer.w.copy()
    v = np.zeros_like(w)
    for _ in range(2):
        g = rng.normal(size=w.shape)
        layer.d_w[:] = g
        sgd_momentum_step(params, eta=eta, momentum=mu, l2=l2)
        v = mu * v + (1 - mu) * (g + l2 * w)
        w = w - eta * v
    assert np.abs(layer.w - w).max() < 1e-12


def test_scale_hyperparams_identity():
    assert scale_hyperparams(0.1, 0.9, 1e-4, 128, 128) == (0.1, 0.9, 0.1)


def test_scale_hyperparams_momentum_rows():
    _, mu_small, _ = scale_hyperparams(0.1, 0.9, 1e-4, 256, 32)
    assert round(mu_small, 5) == 0.98692
    _, mu_big, _ = scale_hyperparams(0.1, 0.9, 1e-4, 128, 512)
    assert mu_big == pytest.approx(0.9**4, abs=1e-12)
    assert mu_big == pytest.approx(0.6561, abs=1e-12)


def test_scale_hyperparams_framework_correction():
    eta_new, mu_new, eta_star = scale_hyperparams(0.1, 0.9, 1e-4, 256, 32)
    assert eta_new == pytest.approx(0.1 * 32 / 256)
    assert eta_star == pytest.approx((1 - mu_new) / (1 - 0.9) * eta_new)


def test_scale_hyperparams_rejects_bad_batches():
    with pytest.raises(ValueError):
        scale_hyperparams(0.1, 0.9, 1e-4, 0, 32)
    with pytest.raises(ValueError):
        scale_hyperparams(0.1, 0.9, 1e-4, 32, -1)


# -------------------------------------------------------- loss and conv


def test_uniform_logits_loss_is_log_classes():
    logits = np.zeros((3, 7))
    loss, _ = softmax_xent_forward(logits, np.array([0, 3, 6]))
    assert loss == pytest.approx(np.log(7), rel=1e-12)


def test_large_margin_loss_vanishes():
    logits = np.full((1, 4), -50.0)
    logits[0, 2] = 50.0
    loss, _ = softmax_xent_forward(logits, np.array([2]))
    assert loss < 1e-12


def test_softmax_backward_matches_finite_differences():
    rng = make_rng(62)
    logits = rng.normal(size=(3, 4))
    labels = np.array([1, 0, 3])
    _, probs = softmax_xent_forward(logits, labels)
    got = softmax_xent_backward(probs, labels)
    fd = central_differences(lambda v: softmax_xent_forward(v, labels)[0], logits, 1e-6)
    assert got == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_conv_weight_gradients_match_finite_differences():
    rng = make_rng(63)
    conv = Conv2D(1, 2, 3, rng)
    x = rng.normal(size=(2, 1, 6, 6))
    loss_w = rng.normal(size=(2, 2, 4, 4))

    def loss():
        return float((conv.forward(x) * loss_w).sum())

    conv.forward(x)
    conv.backward(loss_w)
    g_k, g_b = conv.d_k.copy(), conv.d_b.copy()
    conv.d_k[...] = 0.0
    conv.d_b[...] = 0.0
    h = 1e-6
    worst = 0.0
    for i in range(conv.k.size):
        orig = conv.k.flat[i]
        conv.k.flat[i] = orig + h
        up = loss()
        conv.k.flat[i] = orig - h
        dn = loss()
        conv.k.flat[i] = orig
        worst = max(worst, abs(g_k.flat[i] - (up - dn) / (2 * h)))
    assert worst / np.abs(g_k).max() < 1e-6
    for i in range(conv.b.size):
        orig = conv.b[i]
        conv.b[i] = orig + h
        up = loss()
        conv.b[i] = orig - h
        dn = loss()
        conv.b[i] = orig
        assert g_b[i] == pytest.approx((up - dn) / (2 * h), rel=1e-6)


# -------------------------------------------------------------- full network


def net_loss(net, x, labels):
    logits = net.forward_batch(x, training=True)
    return softmax_xent_forward(logits, labels)[0]


@pytest.mark.parametrize("kind", ["batch", "layer", "none"])
def test_full_network_gradient_check(kind):
    cfg = TrainConfig(normalizer=kind, hidden=3)
    rng = make_rng(65)
    net = Mlp([2, 3, 2], cfg, rng)
    x = rng.normal(size=(4, 2))
    labels = rng.integers(0, 2, size=4)
    logits = net.forward_batch(x, training=True)
    _, probs = softmax_xent_forward(logits, labels)
    net.backward_batch(softmax_xent_backward(probs, labels))
    grads = net.params.g.copy()
    p = net.params.p
    assert p.size >= 17
    h = 1e-6
    fd = []
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + h
        up = net_loss(net, x, labels)
        p[i] = orig - h
        dn = net_loss(net, x, labels)
        p[i] = orig
        fd.append((up - dn) / (2 * h))
    fd = np.array(fd)
    assert np.abs(grads - fd).max() / np.abs(fd).max() <= 1e-5


@pytest.mark.parametrize("size", [5, 8, 300])
@pytest.mark.parametrize("kind", ["online", "batch", "layer", "exact-population", "none"])
def test_evaluation_between_forward_and_backward_leaves_the_gradient_unchanged(kind, size):
    # An evaluation records nothing, so the pending training forward's
    # records reach its backward as they were, whether the evaluated set's
    # size differs from the group's or equals it, whether it runs in one
    # block or in several, and whether the training group is one sample,
    # whose online pass runs on rows (the batch kinds need two).
    data = generate_dataset(DatasetSpec(kind="gaussian-blobs", classes=3, samples=8 + size, dim=4), 67)
    evaluated = Dataset(data.x[8:], data.labels[8:], data.n_classes)
    cfg = TrainConfig(normalizer=kind, hidden=6, depth=2)
    for group in (8,) if kind in ("batch", "exact-population") else (8, 1):
        x, labels = data.x[:group], data.labels[:group]
        grads = []
        for evaluate in (False, True):
            net = Mlp([4, 6, 6, 3], cfg, make_rng(68))
            logits = net.forward_batch(x, training=True)
            if evaluate:
                evaluate_accuracy(net, evaluated)
            _, probs = softmax_xent_forward(logits, labels)
            net.backward_batch(softmax_xent_backward(probs, labels))
            grads.append(net.params.g.copy())
        assert np.array_equal(grads[1], grads[0])


@pytest.mark.parametrize("kind", ["online", "batch", "layer"])
def test_evaluation_peaks_at_few_hidden_activations(kind):
    # Evaluation runs in blocks of 128 samples and keeps no per-layer record,
    # so its peak is a few (128, hidden) activations whatever the set's size.
    net = Mlp([8, 128, 128, 128, 3], TrainConfig(normalizer=kind, hidden=128, depth=3), make_rng(70))
    for samples in (1000, 4000):
        data = generate_dataset(DatasetSpec(kind="gaussian-blobs", classes=3, samples=samples, dim=8), 69)
        assert traced_peak(lambda: evaluate_accuracy(net, data)) <= 6 * 128 * 128 * 8


def test_streaming_norm_scale_invariance_after_requilibration():
    alpha_f = 0.99
    rng = make_rng(66)
    w = rng.normal(size=(4, 6))
    c = 3.7
    base = OnlineNormState(4, alpha_f=alpha_f, alpha_b=0.99)
    scaled = OnlineNormState(4, alpha_f=alpha_f, alpha_b=0.99)
    steps = int(10 / (1 - alpha_f))
    worst = 0.0
    for t in range(steps + 50):
        u = rng.normal(size=6)
        a = (w @ u)[None]
        ya = forward_inference(base, a)
        yb = forward_inference(scaled, c * a)
        forward_sample(base, a)
        forward_sample(scaled, c * a)
        if t >= steps:
            worst = max(worst, float(np.abs(ya - yb).max()))
    assert worst <= 1e-3


# ------------------------------------------------------------------ training


def small_blobs(seed=0, samples=400):
    spec = DatasetSpec(kind="gaussian-blobs", classes=3, samples=samples, dim=4)
    return generate_dataset(spec, seed)


def test_zero_learning_rate_freezes_parameters():
    data = small_blobs()
    cfg = TrainConfig(eta=0.0, epochs=2, batch_size=16, normalizer="batch", hidden=4, seed=3)
    rng = make_rng(cfg.seed)
    ref = Mlp([4, 4, 3], cfg, rng)
    before = [d.w.copy() for d in ref.dense]
    records, net = train(cfg, data)
    for d, w0 in zip(net.dense, before):
        assert np.array_equal(d.w, w0)


def test_fixed_seed_gives_bit_identical_metrics():
    data = small_blobs()
    cfg = TrainConfig(eta=0.05, epochs=2, batch_size=16, normalizer="batch", hidden=8, seed=7)
    rec_a, _ = train(cfg, data)
    rec_b, _ = train(cfg, data)
    assert rec_a == rec_b


def test_online_norm_solves_separable_task():
    data = small_blobs(seed=1, samples=1200)
    # independent oracle: multinomial logistic regression fits the blobs
    assert logistic_oracle(data) > 0.95
    cfg = TrainConfig(
        eta=0.005, momentum=0.9, l2=1e-4, batch_size=1, epochs=3,
        normalizer="online", hidden=16, seed=1,
    )
    records, net = train(cfg, data)
    assert evaluate_accuracy(net, data) > 0.95


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_emits_record_then_halts():
    data = small_blobs(seed=2)
    cfg = TrainConfig(eta=1e4, momentum=0.0, l2=0.0, batch_size=8, epochs=3,
                      normalizer="none", hidden=8, seed=2, divergence_limit=1e3)
    with pytest.raises(DivergenceError) as err:
        train(cfg, data)
    records = err.value.records
    assert len(records) >= 1
    last = records[-1]
    assert not np.isfinite(last.loss) or abs(last.loss) > 1e3


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_online_divergence_raises_divergence_error_with_records():
    data = small_blobs(seed=2)
    cfg = TrainConfig(eta=1e4, momentum=0.0, l2=0.0, batch_size=8, epochs=3,
                      normalizer="online", hidden=8, seed=2)
    with pytest.raises(DivergenceError) as err:
        train(cfg, data)
    records = err.value.records
    assert len(records) >= 1
    assert not np.isfinite(records[-1].loss)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_parameters_halt_after_their_record():
    # One step at eta = 1e300 leaves finite parameters whose sum of squares
    # overflows. The step's loss was computed before the step and is finite.
    data = small_blobs(seed=2, samples=16)
    cfg = TrainConfig(eta=1e300, batch_size=16, epochs=2, normalizer="online", hidden=8, seed=2)
    with pytest.raises(DivergenceError, match="parameters or accumulators diverged at step 1") as err:
        train(cfg, data)
    (record,) = err.value.records
    assert np.isfinite(record.loss) and record.weight_norm_l2 == np.inf


def test_exact_population_normalizer_trains_full_batch():
    data = small_blobs(seed=4)
    cfg = TrainConfig(eta=0.5, momentum=0.9, l2=1e-4, epochs=40,
                      normalizer="exact-population", hidden=8, seed=4)
    records, net = train(cfg, data)
    assert records[-1].accuracy > 0.9
    assert len(records) == cfg.epochs  # one full-batch step per epoch


@pytest.mark.parametrize(
    "normalizer, steps", [("online", 7), ("batch", 6), ("layer", 6), ("none", 6), ("exact-population", 1)]
)
def test_steps_per_epoch_when_batch_size_does_not_divide_the_set(normalizer, steps):
    # 50 samples in groups of 8. The streaming normalizer also trains the
    # trailing group of 2, ceil(50 / 8) = 7 steps; the other kinds drop it,
    # floor(50 / 8) = 6; exact-population takes the whole set as one group.
    data = small_blobs(seed=8, samples=50)
    cfg = TrainConfig(eta=0.01, batch_size=8, epochs=3, normalizer=normalizer, hidden=4, seed=8)
    records, _ = train(cfg, data)
    assert [r.step for r in records] == [steps, 2 * steps, 3 * steps]


def test_metrics_csv_round_trips(tmp_path):
    data = small_blobs(seed=5)
    cfg = TrainConfig(eta=0.05, epochs=2, batch_size=16, normalizer="layer", hidden=8, seed=5)
    records, _ = train(cfg, data)
    path = tmp_path / "metrics.csv"
    header = ",".join(f.name for f in dataclasses.fields(MetricsRecord))
    write_csv(path, header, map(dataclasses.astuple, records))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,epoch,loss,accuracy,weight_norm_l2,eps_y_max,eps_1_max"
    assert len(lines) == len(records) + 1
    row = lines[1].split(",")
    assert int(row[0]) == records[0].step
    assert float(row[2]) == records[0].loss


def test_online_training_reports_accumulator_magnitudes():
    data = small_blobs(seed=6)
    cfg = TrainConfig(eta=0.005, batch_size=1, epochs=1, normalizer="online", hidden=8, seed=6)
    records, _ = train(cfg, data)
    assert records[-1].eps_y_max > 0.0
    assert np.isfinite(records[-1].eps_1_max)


@pytest.mark.parametrize("layer", [0, 1])
def test_eps_maxima_propagates_nan_from_any_layer(layer):
    data = small_blobs(seed=6, samples=40)
    cfg = TrainConfig(eta=0.005, batch_size=1, epochs=1, normalizer="online", hidden=4, depth=2, seed=6)
    _, net = train(cfg, data)
    assert all(np.isfinite(net.eps_maxima()))
    state = net.norms[layer].state
    state.eps_y[0] = np.nan
    state.eps_1[-1] = np.nan
    assert all(np.isnan(net.eps_maxima()))
