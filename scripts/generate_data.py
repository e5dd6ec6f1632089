"""Regenerate the shipped example data files under data/.

Every file is a self-contained JSON document (algebra + precision + payload)
consumable by the CLI.  Run from the repository root:

    python scripts/generate_data.py
"""

import json
import pathlib

from phigamma import (
    CoefficientAlgebra,
    PhiGammaModule,
    SeriesRingSpec,
    algebra_to_json,
    canonical_chi,
    laurent_to_json,
    make_gamma,
    module_to_json,
    rank_one_from_units,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def ring_for(p, degs, ds=None, prec=8):
    ds = ds or [0] * len(degs)
    alg = CoefficientAlgebra(p, [{"n": n, "d": d} for n, d in zip(degs, ds)])
    return SeriesRingSpec(alg, prec)


def doc(ring, **payload):
    return {
        "schema_version": 1,
        "algebra": algebra_to_json(ring.coeffs),
        "precision": list(ring.precision),
        **payload,
    }


def cyclotomic_module(ring, alpha=0):
    """a_phi = X_alpha^(p-1), a_gamma = ((1+X_alpha)^chi - 1)/X_alpha."""
    p = ring.coeffs.p
    chi = canonical_chi(ring)
    a_phi = {
        a: ring.var(a) ** (p - 1) if a == alpha else ring.one()
        for a in range(ring.nvars)
    }
    g = make_gamma(ring, alpha, chi)
    shift = tuple(-1 if a == alpha else 0 for a in range(ring.nvars))
    a_gamma = g.apply(ring.var(alpha)).monomial_shift(shift)
    return rank_one_from_units(ring, a_phi, gamma_units=[(alpha, chi, a_gamma)])


def write(name, payload):
    path = DATA / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main():
    DATA.mkdir(exist_ok=True)

    # -- idempotents configs -------------------------------------------
    write("idempotents_p2_n22.json", {
        "schema_version": 1, "p": 2,
        "factors": [{"n": 2, "label": "a"}, {"n": 2, "label": "b"}],
    })
    write("idempotents_p3_n23.json", {
        "schema_version": 1, "p": 3,
        "factors": [{"n": 2, "label": "a"}, {"n": 3, "label": "b"}],
    })

    # -- modules -------------------------------------------------------
    ring22 = ring_for(2, [2, 2])
    trivial = rank_one_from_units(
        ring22, {a: ring22.one() for a in range(2)}
    )
    write("module_trivial_p2.json", doc(ring22, module=module_to_json(trivial)))

    ring2 = ring_for(2, [1], prec=8)
    write("module_cyclotomic_p2.json",
          doc(ring2, module=module_to_json(cyclotomic_module(ring2))))

    ring3 = ring_for(3, [1], prec=9)
    write("module_cyclotomic_p3.json",
          doc(ring3, module=module_to_json(cyclotomic_module(ring3))))

    # inverse-square: phi scalar X^-2, no group generators; its lattice
    # certificate has r = 2
    inv2 = rank_one_from_units(ring2, {0: ring2.monomial((-2,))})
    write("module_inverse_square_p2.json", doc(ring2, module=module_to_json(inv2)))

    # corrupted negative control: cyclotomic with the gamma scalar damaged
    Dc = cyclotomic_module(ring2)
    alpha, chi, A = Dc.gamma_generators[0]
    bad = PhiGammaModule(
        ring2, 1, Dc.phi_matrices, [(alpha, chi, [[A[0][0] + ring2.one()]])]
    )
    write("module_corrupted_p2.json", doc(ring2, module=module_to_json(bad)))

    # -- characters ----------------------------------------------------
    write("character_trivial_p3.json",
          doc(ring3, character={"gamma_values": [], "delta_values": []}))
    write("character_p3_order2.json",
          doc(ring3, character={"gamma_values": [
              {"alpha": "a", "chi_order": 2, "value": 2}]}))
    ring5 = ring_for(5, [1], prec=10)
    write("character_p5_order4.json",
          doc(ring5, character={"gamma_values": [
              {"alpha": "a", "chi_order": 4, "value": 2}]}))
    ring33 = ring_for(3, [1, 1], prec=9)
    write("character_p3_pair.json",
          doc(ring33, character={"gamma_values": [
              {"alpha": "a", "chi_order": 2, "value": 2},
              {"alpha": "b", "chi_order": 2, "value": 2}]}))
    # the same pair at p = 10007 with the default moduli, both values -1
    big = 10007
    write("character_p10007_pair.json", {
        "schema_version": 1,
        "algebra": {"p": big, "factors": [
            {"label": label, "n": 1, "transcendentals": []}
            for label in "ab"]},
        "precision": [big, big],
        "character": {"gamma_values": [
            {"alpha": label, "chi_order": 2, "value": big - 1}
            for label in "ab"]},
    })
    ringd = ring_for(3, [1], ds=[1], prec=9)
    write("character_p3_delta_unsupported.json",
          doc(ringd, character={"gamma_values": [],
                                "delta_values": [{"alpha": "a", "index": 1,
                                                  "value": 2}]}))

    # -- fixed point configs -------------------------------------------
    write("fixed_points_p2_n22.json",
          doc(ring22, window=8, subwindow=4, expect_dim=1))
    write("fixed_points_quotient_p2.json",
          doc(ring22, quotient={"alpha": "a", "r": 2}, expect_dim=4))
    # phi_b = X_b^-1 on a rank-1 module: modulo X_a^2 the fixed monomials
    # are X_b and X_a X_b, each with the 2-dimensional phi_b-fixed part of
    # the finite part
    shifted = rank_one_from_units(
        ring22, {0: ring22.one(), 1: ring22.monomial((0, -1))}
    )
    write("fixed_points_quotient_module_p2.json",
          doc(ring22, module=module_to_json(shifted),
              quotient={"alpha": "a", "r": 2}, expect_dim=4))

    # -- dplusplus battery (trivial module) ----------------------------
    x_delta = laurent_to_json(ring22.x_delta())
    one = laurent_to_json(ring22.one())
    x_a = laurent_to_json(ring22.var(0))
    x_delta_inv = laurent_to_json(ring22.x_delta(-1))
    write("dplusplus_trivial_p2.json",
          doc(ring22, module=module_to_json(trivial),
              elements=[x_delta, one, x_a, x_delta_inv]))

    # -- apply-op ------------------------------------------------------
    write("apply_op_example.json",
          doc(ring22, word="phi(a)^2 * gamma(a; 1+p)", series=x_a))


if __name__ == "__main__":
    main()
