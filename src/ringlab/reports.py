"""Analysis pipelines.

Each pipeline returns an ordered tree of plain values (dicts, lists,
strings, ints, bools), which cli renders; rendering the same tree twice
produces identical bytes.  Pipeline failures are wrapped in PipelineError
carrying the stage name; a missing Z-module complement is analysis
content, not a failure.
"""

from __future__ import annotations

from . import artinian, bilinear, lie as lie_mod, modules, rings, scalars
from .documents import InputDocument
from .domains import Extension, PrimeField
from .errors import NoSplit, PipelineError, RinglabError, UnsupportedDomain
from .records import record


@record
class AnalyzeOptions:
    seed: int = 0
    max_class: int = 6
    width_bound: int = 16
    witnesses: bool = False


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except NoSplit:
        raise
    except RinglabError as exc:
        raise PipelineError(name, exc) from exc


def _fmt_scalar(domain, value) -> str:
    """A coefficient as fmt_element prints it; one of several terms in the
    generator t is parenthesised, as in Poly.format."""
    if isinstance(domain, Extension):
        text = domain.format_text(value)
        return f"({text})" if " + " in text else text
    return str(domain.format(value))


def fmt_element(carrier, coords, names) -> str:
    """A coordinate tuple as a combination of named basis vectors."""
    terms = []
    for i, c in enumerate(coords):
        if carrier.kind == "field":
            domain = carrier.domain
            if domain.is_zero(c):
                continue
            text = _fmt_scalar(domain, c)
        else:
            if c == 0:
                continue
            text = str(c)
        name = names[i] if i < len(names) else f"b{i}"
        if text == "1":
            terms.append(name)
        elif text == "-1":
            terms.append(f"-{name}")
        else:
            terms.append(f"{text}*{name}")
    return " + ".join(terms) if terms else "0"


def _fmt_rows(carrier, rows, names):
    return [fmt_element(carrier, row, names) for row in rows]


def _residue_text(lf) -> str:
    base = lf.algebra.base
    if lf.residue_degree == 1:
        return base.describe()
    # an extension base already names its generator t
    var = "s" if isinstance(base, Extension) else "t"
    return f"{base.describe()}[{var}]/({lf.residue_minpoly.format(var)})"


def analyze(doc: InputDocument, opts: AnalyzeOptions | None = None) -> dict:
    opts = opts or AnalyzeOptions()
    dispatch = {
        "module": analyze_module,
        "bilinear": analyze_bilinear,
        "ring": analyze_ring,
        "lie": analyze_lie,
        "commutative-algebra": analyze_commutative_algebra,
    }
    return dispatch[doc.kind](doc, opts)


# -- module ---------------------------------------------------------------------


def analyze_module(doc: InputDocument, opts: AnalyzeOptions) -> dict:
    report = {"kind": "module", "module": doc.carrier.describe()}
    desc = doc.carrier.desc
    if desc is None:
        from .bilinear import _field_desc

        desc = _field_desc(doc.carrier)
    if desc is None:
        raise PipelineError(
            "divisible_bounded_split",
            UnsupportedDomain("no formal-sum shape for this carrier"),
        )
    m_d, m_b, _ = _stage("divisible_bounded_split", modules.divisible_bounded_split, desc)
    report["divisible_part"] = m_d.describe()
    report["bounded_part"] = m_b.describe()
    report["torsion_part"] = modules.torsion_part(desc).describe()
    report["is_divisible"] = desc.is_divisible()
    report["is_bounded"] = desc.is_bounded()
    if desc.is_bounded() and desc.dim:
        report["exponent"] = desc.exponent()
    return report


# -- bilinear -------------------------------------------------------------------


def analyze_bilinear(doc: InputDocument, opts: AnalyzeOptions) -> dict:
    f = doc.bilinear_map()
    m_names = doc.basis_names
    n_names = doc.codomain_basis or doc.basis_names
    report = {"kind": "bilinear", "map": f.describe()}
    kernel = _stage("two_sided_kernel", bilinear.two_sided_kernel, f)
    image = _stage("image_submodule", bilinear.image_submodule, f)
    report["two_sided_kernel"] = _fmt_rows(f.m, kernel, m_names)
    report["image"] = _fmt_rows(f.n, image, n_names)
    report["is_full"] = _stage("is_full", bilinear.is_full, f)
    report["is_nondegenerate"] = not kernel
    report["is_identically_degenerate"] = bilinear.is_identically_degenerate(f)
    if f.m.kind == "field":
        wr = _stage("width", bilinear.width, f, opts.width_bound)
        report["width"] = wr.describe()
    else:
        report["width"] = "not computed over Z carriers in v1"
    try:
        split = _stage("foundation_addition_split", bilinear.foundation_addition_split, f)
        report["foundation"] = {
            "dim": split.foundation.m.dim,
            "codomain_dim": split.foundation.n.dim,
            "reassembly_exact": bilinear.verify_reassembly(f, split.blocks),
        }
        report["addition"] = {"dim": split.addition.m.dim}
        foundation = split.foundation
    except NoSplit as exc:
        report["foundation"] = f"no split: {exc} (side: {exc.which})"
        foundation = None
    if f.m.kind == "field":
        target = f if not kernel else foundation
        if target is not None and bilinear.is_full(target):
            deco = _stage("decompose_via_scalars", scalars.decompose_via_scalars,
                          target, opts.seed)
            report["largest_scalar_ring"] = {
                "dim": deco.scalar_report.algebra.rank,
                "bilinear_certified": deco.scalar_report.bilinear_certified,
                "local_factors": len(deco.components),
            }
            comps = []
            for c in deco.components:
                comps.append(
                    {
                        "dim_m": c.map.m.dim,
                        "dim_n": c.map.n.dim,
                        "scalar_dim": c.local.algebra.dim,
                        "residue_field": _residue_text(c.local),
                        "nilpotency_index": c.local.nilpotency_index,
                    }
                )
            report["components"] = comps
            report["reassembly_exact"] = bilinear.verify_reassembly(target, deco.blocks)
    return report


# -- ring -----------------------------------------------------------------------


def _component_entry(comp: rings.RingComponent) -> dict:
    entry = {
        "dim": comp.ring.dim,
        "scalar_ring_dim": comp.local.algebra.dim,
        "residue_field": _residue_text(comp.local),
        "residue_degree": comp.residue_degree,
        "dim_over_residue": comp.dim_over_residue,
        "nilpotency_index": comp.local.nilpotency_index,
        "r_k": comp.j_report.r_k,
        "j_layers": list(comp.j_report.layer_dims),
        "enrichment_verified": rings.verify_enrichment(comp.ring, comp.enrichment),
        "is_lie": comp.ring.lie,
    }
    if comp.residue_degree > 1:
        entry["needs_extension_to_split_absolutely"] = list(
            str(c) for c in comp.local.residue_minpoly.coeffs
        )
    return entry


def analyze_ring(doc: InputDocument, opts: AnalyzeOptions) -> dict:
    r = doc.ring()
    names = doc.basis_names
    report = {
        "kind": "ring",
        "carrier": r.carrier.describe(),
        "flags": {
            "associative": r.associative,
            "commutative": r.commutative,
            "lie": r.lie,
        },
    }
    ann = _stage("annihilator", rings.annihilator, r)
    sq = _stage("square_ideal", rings.square_ideal, r)
    delta = _stage("delta_ideal", rings.delta_ideal, r)
    report["annihilator"] = _fmt_rows(r.carrier, ann, names)
    report["square_ideal"] = _fmt_rows(r.carrier, sq, names)
    report["delta"] = _fmt_rows(r.carrier, delta, names)
    report["is_regular"] = _stage("is_regular", rings.is_regular, r)
    if r.carrier.kind == "mixed":
        split = _stage("central_split_mixed", rings.central_split_mixed, r)
        report["central_split"] = {
            "divisible_dim": split.divisible.dim,
            "bounded_dim": split.bounded.dim,
            "cross_annihilation": split.cross_annihilation,
            "intersection_trivial": split.intersection_trivial,
        }
        return report
    try:
        split = _stage("foundation_addition", rings.foundation_addition, r)
        report["foundation"] = {
            "dim": split.foundation.dim,
            "addition_dim": split.addition.dim,
        }
        if opts.witnesses:
            report["foundation"]["rows"] = _fmt_rows(
                r.carrier, split.foundation_rows, names
            )
            report["foundation"]["addition_rows"] = _fmt_rows(
                r.carrier, split.addition_rows, names
            )
    except NoSplit as exc:
        report["foundation"] = {
            "no_split": str(exc),
            "failed_side": exc.which,
        }
        if r.carrier.kind == "integer":
            report["note"] = "the addition need not split off over Z"
        return report
    if r.carrier.kind != "field":
        report["note"] = "scalar-ring pipeline over Z carriers is outside v1"
        return report
    if r.carrier.domain.char == 0:
        deco = _stage("decompose_char0", rings.decompose_char0, r, opts.seed)
        report["scalar_ring_dim"] = (
            deco.scalar.algebra.rank if deco.scalar is not None else 0
        )
        report["components"] = [_component_entry(c) for c in deco.components]
        report["addition_dim"] = len(deco.addition_rows)
        report["reassembly_exact"] = rings.verify_ring_reassembly(r, deco)
        verdict = rings.categoricity_check(deco)
        report["categoricity"] = {
            "structurally_satisfied": verdict.satisfied,
            "components": verdict.component_count,
            "addition_dim": verdict.addition_dim,
            "note": verdict.note,
        }
        if opts.witnesses:
            report["witness_rows"] = [
                _fmt_rows(r.carrier, c.rows, names) for c in deco.components
            ]
    elif isinstance(r.carrier.domain, PrimeField):
        if not sq:
            report["note"] = "zero multiplication: pure addition over GF(p)"
            return report
        product = _stage("decompose_bounded", rings.decompose_bounded, r, opts.seed)
        report["central_product"] = [
            {
                "dim": c.ring.dim,
                "scalar_ring_dim": c.local.algebra.dim,
                "residue_field": _residue_text(c.local),
                "nilpotency_index": c.local.nilpotency_index,
            }
            for c in product.components
        ]
    return report


# -- lie ------------------------------------------------------------------------


def analyze_lie(doc: InputDocument, opts: AnalyzeOptions) -> dict:
    r = doc.ring()
    names = doc.basis_names
    l = _stage("verify_nilpotent_lie", lie_mod.verify_nilpotent_lie, r)
    report = {
        "kind": "lie",
        "carrier": r.carrier.describe(),
        "nilpotency_class": l.nilpotency_class,
        "lower_central_series_dims": [len(rows) for rows in l.lower_central_series],
    }
    corr = _stage("central_series_and_center", lie_mod.central_series_and_center,
                  l, opts.max_class)
    report["center"] = _fmt_rows(r.carrier, corr.center_rows, names)
    report["correspondence"] = {
        "center_certified": corr.centre_certified,
        "series_group_closed": corr.series_group_closed,
        "series_commutator_drop": corr.series_commutator_drop,
    }
    deco = _stage("group_decompose", lie_mod.group_decompose, l, opts.seed,
                  opts.max_class)
    report["group_factors"] = [
        {
            "dim": f.algebra.dim,
            "class": f.algebra.nilpotency_class,
            "abelian": f.abelian,
            "residue_degree": f.residue_degree,
        }
        for f in deco.factors
    ]
    report["abelian_factor_dim"] = len(deco.abelian_factor_rows)
    report["cross_commutators_trivial"] = deco.cross_commutators_trivial
    verdict = rings.categoricity_check(deco.ring_decomposition)
    report["categoricity"] = {
        "structurally_satisfied": verdict.satisfied,
        "components": verdict.component_count,
        "addition_dim": verdict.addition_dim,
    }
    report["annihilator"] = _fmt_rows(
        r.carrier, rings.annihilator(r), names
    )
    if opts.witnesses:
        report["factor_rows"] = [
            _fmt_rows(r.carrier, f.rows, names) for f in deco.factors
        ]
    return report


# -- commutative algebra -----------------------------------------------------------


def analyze_commutative_algebra(doc: InputDocument, opts: AnalyzeOptions) -> dict:
    a = _stage("construct", doc.commutative_algebra)
    names = doc.basis_names
    carrier = doc.carrier
    report = {
        "kind": "commutative-algebra",
        "base": a.base.describe(),
        "dim": a.dim,
    }
    rad = _stage("radical", artinian.radical, a)
    report["radical"] = _fmt_rows(carrier, rad, names)
    factors = _stage("local_decomposition", artinian.local_decomposition, a, opts.seed)
    entries = []
    total_r = 0
    for lf in factors:
        series = _stage("j_series", artinian.j_series, lf)
        total_r += series.r_k
        entry = {
            "idempotent": fmt_element(carrier, lf.idempotent, names),
            "dim": lf.algebra.dim,
            "nilpotency_index": lf.nilpotency_index,
            "residue_field": _residue_text(lf),
            "j_layers": list(series.layer_dims),
            "r_k": series.r_k,
        }
        rep = _stage("field_of_representatives", artinian.field_of_representatives, lf)
        entry["field_of_representatives"] = {
            "degree": lf.residue_degree,
            "lifted_root_satisfies_minpoly": a_root_check(lf, rep),
        }
        entries.append(entry)
    report["local_factors"] = entries
    report["r_k_total"] = total_r
    return report


def a_root_check(lf, rep) -> bool:
    value = lf.algebra.evaluate_poly(lf.residue_minpoly, rep.lifted_root)
    return lf.algebra.is_zero_elem(value)

