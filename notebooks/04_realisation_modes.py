"""Why the engine's replacement count is the inverse-CDF rule.

When a batch is accepted, n_r reservoir slots are replaced. For each slot to
stay an exact draw from the stream law, the per-slot replacement probability
must equal the batch's acceptance mass p exactly, i.e. E[n_r 1{accept}] must
be k*p. Three candidate rules:

  coupled-beta          accept iff x < p, n_r = 1 + invBin(k-1, p) at x
  conditional-binomial  accept iff x < p, n_r ~ Bin(k, p) | n_r >= 1
  binomial-cdf          n_r = invBin(k, p) at x, accept iff n_r >= 1

Only the last satisfies E[n_r 1{accept}] = k*p for every k; the others fall
short of it at k > 1 (all three agree at k = 1), so fresh batches replace
fewer slots than the stream law demands and old content lingers.
This script computes the per-slot replacement probability q per rule exactly
on a two-batch fixture, then shows the end-to-end effect on the pooled
reservoir distribution at k = 10. The engine runs binomial-cdf; the other
two rules come from rps.oracle and run through a small loop below.

Run:  python3 notebooks/04_realisation_modes.py   (about ten seconds)
"""

from collections import Counter
from random import Random

from rps import (
    Batch,
    BaseMeasure,
    MeasureSpec,
    ReservoirSampler,
    batch_weight,
    sample_from_batch,
    sequence,
)
from rps.betainc import binomial_survival
from rps.engine import sample_distinct_indices
from rps.oracle import (
    draw_realisations_conditional,
    inv_draw_realisations,
    stream_law,
    total_variation,
)

A, B, C = 0, 1, 2
K = 10

z1 = sequence([[A], [B], [A, C], [B]])
z2 = sequence([[A, B, C], [C], [A, C]])
z3 = sequence([[B], [A, C], [A]])
stream = [Batch(1.0, (z1, z2)), Batch(2.0, (z3,))]
spec = MeasureSpec(BaseMeasure.FREQ)

# second-batch acceptance mass on this fixture: w2 / (w1 + w2) = 13 / 89
p2 = 13 / 89


def q_coupled(k, p):
    return sum(min(p, binomial_survival(m, k - 1, p)) for m in range(k)) / k


def q_conditional(k, p):
    return p * p / binomial_survival(1, k, p)


def slots_after_stream(rule, seed):
    """The K slot patterns after the fixture stream under one rule."""
    if rule == "binomial-cdf":
        sampler = ReservoirSampler(spec, capacity=K, seed=seed)
        sampler.process_stream(stream)
        return [x for _, x in sampler.snapshot()]
    # a rule that accepts iff x < p, run the way the engine would run it:
    # acceptance uniform, then the conditional rule's own uniform, then
    # eviction slots (none on the first fill), then pattern draws
    rng = Random(seed)
    slots = []
    mass = 0.0
    for batch in stream:
        w, masses = batch_weight(batch, spec)
        mass += w  # no damping: the normalizer is the plain sum
        p = w / mass
        u = rng.random()
        if u >= p:
            continue
        if rule == "coupled-beta":
            n = inv_draw_realisations(K, p, u)
        else:
            n = draw_realisations_conditional(K, p, rng)
        if slots:
            evicted = sample_distinct_indices(rng, K, n)
            for s, x in zip(evicted, sample_from_batch(batch, spec, n, rng, masses)):
                slots[s] = x
        else:
            slots = sample_from_batch(batch, spec, n, rng, masses)
    return slots


print(f"fixture: two sequence batches, p2 = 13/89 = {p2:.4f}, k = {K}")
print()
print("per-slot replacement probability q at the second batch (target: p2)")
print(f"  coupled-beta          q = {q_coupled(K, p2):.4f}")
print(f"  conditional-binomial  q = {q_conditional(K, p2):.4f}")
print(f"  binomial-cdf          q = {p2:.4f}  (exact by construction)")
print()

want = stream_law(stream, spec)
runs = 10_000
print(f"pooled distribution over all {K} slots, {runs} runs per rule,")
print(f"total variation against the exact stream law "
      f"(noise floor here is about 0.011):")
for rule in ("coupled-beta", "conditional-binomial", "binomial-cdf"):
    counts: Counter = Counter()
    for i in range(runs):
        counts.update(slots_after_stream(rule, 90_000 + i))
    total = sum(counts.values())
    emp = {x: c / total for x, c in counts.items()}
    print(f"  {rule:22s} tv = {total_variation(emp, want):.4f}")
print()
print("The under-replacement of the first two rules lands the slot marginal")
print("a fixed distance from the target law no matter how many runs are")
print("averaged, so binomial-cdf is the engine's one rule; the other two")
print("remain in rps.oracle for comparison.")
