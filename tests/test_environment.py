import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnmarket.environment import (
    ComponentSpace,
    Experiment,
    JointPrior,
    _ratio_test,
    condition_on_components,
    merge_senders,
    message_distribution,
    no_direct_info,
    update,
)
from attnmarket.errors import (
    UnknownComponent,
    ZeroMassEvent,
    ZeroProbabilityMessage,
)


# -- random small environments for property tests ------------------------------

@st.composite
def small_environments(draw):
    n_senders = draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, 3)) for _ in range(n_senders + 1)]
    spaces = tuple(
        ComponentSpace(k, tuple(f"v{j}" for j in range(size)))
        for k, size in enumerate(sizes)
    )
    total = int(np.prod(sizes))
    weights = draw(st.lists(st.integers(0, 5), min_size=total, max_size=total)
                   .filter(lambda w: sum(w) > 0))
    mass = np.asarray(weights, dtype=float).reshape(sizes)
    return JointPrior(spaces, mass / mass.sum())


@st.composite
def environments_with_experiments(draw):
    prior = draw(small_environments())
    sender = draw(st.integers(1, prior.n_senders))
    space = prior.spaces[sender]
    n_msgs = draw(st.integers(1, 3))
    kernel = []
    for _ in range(space.size):
        row = draw(st.lists(st.integers(0, 5), min_size=n_msgs,
                            max_size=n_msgs).filter(lambda r: sum(r) > 0))
        row = np.asarray(row, dtype=float)
        kernel.append(row / row.sum())
    exp = Experiment(sender, space, tuple(f"m{j}" for j in range(n_msgs)),
                     np.asarray(kernel))
    return prior, exp


# -- construction invariants ----------------------------------------------------

def test_component_space_validation():
    with pytest.raises(ValueError):
        ComponentSpace(0, ())
    with pytest.raises(ValueError):
        ComponentSpace(0, ("a", "a"))


def test_prior_validation():
    spaces = (ComponentSpace(0, ("x",)), ComponentSpace(1, ("a", "b")))
    with pytest.raises(ValueError):
        JointPrior(spaces, np.array([[0.5, 0.4]]))  # sums to 0.9
    with pytest.raises(ValueError):
        JointPrior(spaces, np.array([[1.2, -0.2]]))
    with pytest.raises(ValueError):
        JointPrior((spaces[1], spaces[0]), np.array([[0.5], [0.5]]))


def test_experiment_validation():
    space = ComponentSpace(1, ("a", "b"))
    with pytest.raises(ValueError):
        Experiment(1, space, ("m",), np.array([[0.9], [1.0]]))
    with pytest.raises(UnknownComponent):
        Experiment(0, space, ("m",), np.array([[1.0], [1.0]]))
    aon = Experiment.aon(space, 0.2)
    assert aon.messages == ("a", "b", "null")
    assert np.allclose(aon.kernel.sum(axis=1), 1.0)


# -- conditioning ---------------------------------------------------------------

def test_condition_uniform_coin(coin_match):
    prior, _ = coin_match
    belief = condition_on_components(prior, {1: "H"})
    # uniform over the two states with the first coin heads
    assert belief.mass[0, 0, 0] == pytest.approx(0.5)
    assert belief.mass[0, 0, 1] == pytest.approx(0.5)
    assert belief.mass[0, 1, :].sum() == 0.0


def test_condition_keeps_independent_marginal(pair_guess):
    prior, _ = pair_guess
    belief = condition_on_components(prior, {2: "T"})
    assert np.allclose(belief.marginal(1), [0.7, 0.3])
    assert np.allclose(belief.marginal(2), [0.0, 1.0])


def test_condition_binary_signal_bayes():
    spaces = (ComponentSpace(0, ("0", "1")), ComponentSpace(1, ("0", "1")))
    prior = JointPrior(spaces, np.array([[0.4, 0.1], [0.1, 0.4]]))
    belief = condition_on_components(prior, {1: "1"})
    assert belief.marginal(0)[1] == pytest.approx(0.8)


def test_condition_errors(coin_match):
    prior, _ = coin_match
    with pytest.raises(UnknownComponent):
        condition_on_components(prior, {3: "H"})
    with pytest.raises(UnknownComponent):
        condition_on_components(prior, {1: "X"})
    spaces = (ComponentSpace(0, ("x",)), ComponentSpace(1, ("a", "b")))
    degenerate = JointPrior(spaces, np.array([[1.0, 0.0]]))
    with pytest.raises(ZeroMassEvent):
        condition_on_components(degenerate, {1: "b"})


# -- message distributions ------------------------------------------------------

def test_message_distribution_fully_revealing(coin_match):
    prior, _ = coin_match
    exp = Experiment.fully_revealing(prior.spaces[1])
    assert np.allclose(message_distribution(prior.belief(), exp), [0.5, 0.5])


def test_message_distribution_aon(coin_match):
    prior, _ = coin_match
    exp = Experiment.aon(prior.spaces[1], 0.2)
    assert np.allclose(message_distribution(prior.belief(), exp),
                       [0.1, 0.1, 0.8])


def test_message_distribution_uninformative(coin_match):
    prior, _ = coin_match
    exp = Experiment.uninformative(prior.spaces[1])
    dist = message_distribution(prior.belief(), exp)
    assert dist[-1] == pytest.approx(1.0)


# -- updating -------------------------------------------------------------------

def test_update_revealing_matches_conditioning(coin_match):
    prior, _ = coin_match
    exp = Experiment.fully_revealing(prior.spaces[1])
    via_update = update(prior.belief(), exp, "H")
    via_condition = condition_on_components(prior, {1: "H"})
    assert np.allclose(via_update.mass, via_condition.mass)


def test_update_bayes_factor():
    spaces = (ComponentSpace(0, ("0", "1")), ComponentSpace(1, ("0", "1")))
    prior = JointPrior(spaces, np.array([[0.4, 0.1], [0.1, 0.4]]))
    exp = Experiment.fully_revealing(spaces[1])
    post = update(prior.belief(), exp, "1")
    assert post.marginal(0)[1] == pytest.approx(0.8)


def test_update_null_message_is_uninformative(coin_match):
    prior, _ = coin_match
    exp = Experiment.aon(prior.spaces[1], 0.2)
    post = update(prior.belief(), exp, "null")
    assert np.allclose(post.mass, prior.mass, atol=1e-12)


def test_update_zero_probability_message(coin_match):
    prior, _ = coin_match
    exp = Experiment.aon(prior.spaces[1], 1.0)
    with pytest.raises(ZeroProbabilityMessage):
        update(prior.belief(), exp, "null")


@settings(max_examples=60, deadline=None)
@given(environments_with_experiments())
def test_belief_martingale(env_exp):
    prior, exp = env_exp
    belief = prior.belief()
    dist = message_distribution(belief, exp)
    mix = np.zeros_like(belief.mass)
    for m, p in zip(exp.messages, dist):
        if p > 0.0:
            mix = mix + p * update(belief, exp, m).mass
    assert np.allclose(mix, belief.mass, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(environments_with_experiments())
def test_update_never_grows_support(env_exp):
    prior, exp = env_exp
    belief = prior.belief()
    dist = message_distribution(belief, exp)
    for m, p in zip(exp.messages, dist):
        if p > 0.0:
            post = update(belief, exp, m)
            assert post.supported_on(prior)
            assert not np.any((post.mass > 0) & (belief.mass == 0))


# -- direct-information test ----------------------------------------------------

def test_no_direct_info_at_prior(coin_match):
    prior, _ = coin_match
    assert no_direct_info(prior.belief(), prior, 1)
    assert no_direct_info(prior.belief(), prior, 2)


def test_no_direct_info_after_other_revelation(pair_guess):
    prior, _ = pair_guess
    exp = Experiment.fully_revealing(prior.spaces[2])
    post = update(prior.belief(), exp, "T")
    assert no_direct_info(post, prior, 1)
    assert not no_direct_info(post, prior, 2)


def test_direct_info_detected(coin_match):
    prior, _ = coin_match
    exp = Experiment.aon(prior.spaces[1], 0.2)
    post = update(prior.belief(), exp, "H")
    assert not no_direct_info(post, prior, 1)
    assert no_direct_info(post, prior, 2)


@settings(max_examples=60, deadline=None)
@given(environments_with_experiments(), st.integers(1, 3))
def test_no_direct_info_invariant_under_competitors(env_exp, other):
    prior, exp = env_exp
    sender = 1 + (other % prior.n_senders)
    if sender == exp.sender:
        return
    belief = prior.belief()
    dist = message_distribution(belief, exp)
    for m, p in zip(exp.messages, dist):
        if p > 0.0:
            assert no_direct_info(update(belief, exp, m), prior, sender)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_ratio_test_refuses_own_tilt_accepts_competitors_tilt(seed):
    """The certification kernel on random sender joints with zero-mass
    cells: a tilt on the sender's own axis is refused, a tilt on the
    competitors' axes (or a rescaling) is accepted."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    sizes = tuple(int(k) for k in rng.integers(2, 5, n))
    sender = int(rng.integers(1, n + 1))
    p = rng.random(sizes) * (rng.random(sizes) < 0.6)
    # one realization of the others where two of her values have mass
    corner = [0] * n
    for v in (0, 1):
        corner[sender - 1] = v
        p[tuple(corner)] = rng.uniform(0.1, 1.0)

    def tilted(mass, axis, lik):
        return mass * lik.reshape((-1,) + (1,) * (n - 1 - axis))

    others = p * rng.uniform(0.1, 10.0)
    for axis in range(n):
        if axis != sender - 1:
            others = tilted(others, axis, rng.uniform(0.05, 0.95, sizes[axis]))
    own = rng.permutation(np.linspace(0.1, 0.9, sizes[sender - 1]))
    same = _ratio_test(p, sender)
    assert same(p)
    assert same(others)
    assert not same(tilted(p, sender - 1, own))
    assert not same(tilted(others, sender - 1, own))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 1e-13, 1e-12, 1e-11]))
def test_ratio_test_is_the_all_pairs_cross_product_test(seed, eps):
    """Testing each pair of her values once gives the verdict of comparing
    the full cross-product arrays, also within a few ROUNDING of the
    threshold."""
    from attnmarket.tolerance import ROUNDING, TINY
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    sizes = tuple(int(k) for k in rng.integers(1, 6, n))
    sender = int(rng.integers(1, n + 1))
    p = rng.random(sizes) * (rng.random(sizes) < 0.7)
    b = p * rng.uniform(0.1, 10.0, sizes).mean(axis=sender - 1, keepdims=True)
    b = b * (1.0 + eps * rng.standard_normal(sizes))
    pb, pp = (np.moveaxis(a, sender - 1, 0).reshape(sizes[sender - 1], -1)
              for a in (b, p))
    lhs = pb[:, None, :] * pp[None, :, :]
    rhs = lhs.transpose(1, 0, 2)
    want = np.all(np.abs(lhs - rhs)
                  <= ROUNDING * np.maximum(np.maximum(lhs, rhs), TINY))
    assert _ratio_test(p, sender)(b) == bool(want)


# -- sender merging -------------------------------------------------------------

def test_merge_senders_marginals(pair_guess):
    prior, _ = pair_guess
    merged, to_original = merge_senders(prior, 1, 2)
    assert merged.n_senders == 1
    assert merged.spaces[1].size == 4
    assert np.allclose(sorted(merged.mass.ravel()),
                       sorted(prior.mass.ravel()))
    joint = ("-", ("H", "T"))
    assert to_original(joint) == ("-", "H", "T")


def test_merge_senders_three(asymmetric_signals):
    prior, _ = asymmetric_signals
    merged, to_original = merge_senders(prior, 1, 2)
    # probabilities preserved state by state
    for s in range(2):
        for v1 in range(2):
            for v2 in range(2):
                orig = prior.mass[s, v1, v2]
                assert merged.mass[s, 2 * v1 + v2] == pytest.approx(orig)
