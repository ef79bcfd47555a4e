"""Raw catalog data: structure tables, cocycle dictionaries, and relations."""

# Every entry is a dict with keys:
#   dim, params, excluded, products, provenance, expected
# and for constructed entries additionally:
#   base, base_params, cocycle
# Products are (i, j, coeff-expr, k) meaning e_i e_j gets coeff*e_k added.
# Excluded maps a parameter name to expressions its value must avoid.
# Cocycles are (coeff-expr, dictionary-index) pairs over the base's form list.

BASES = {
    "CD2s_01": {
        "dim": 2, "params": (), "excluded": {},
        "products": ((1, 1, "1", 2),),
        "expected": {"ann": 1, "cd": True},
        "provenance": "base-table:dim2",
    },
    "CD3_01": {
        "dim": 3, "params": (), "excluded": {},
        "products": ((1, 1, "1", 2), (2, 2, "1", 3)),
        "expected": {"ann": 1, "cd": True},
        "provenance": "base-table:dim3",
    },
    "CD3_02": {
        "dim": 3, "params": (), "excluded": {},
        "products": ((1, 1, "1", 2), (2, 1, "1", 3), (2, 2, "1", 3)),
        "expected": {"ann": 1, "cd": True},
        "provenance": "base-table:dim3",
    },
    "CD3_03": {
        "dim": 3, "params": (), "excluded": {},
        "products": ((1, 1, "1", 2), (2, 1, "1", 3)),
        "expected": {"ann": 1, "cd": True},
        "provenance": "base-table:dim3",
    },
    "CD3_04": {
        "dim": 3, "params": ("lambda",), "excluded": {},
        "products": ((1, 1, "1", 2), (1, 2, "1", 3), (2, 1, "lambda", 3)),
        "expected": {"ann": 1, "cd": True},
        "provenance": "base-table:dim3",
    },
    "CD3s_01": {
        "dim": 3, "params": (), "excluded": {},
        "products": ((1, 1, "1", 2),),
        "expected": {"ann": 2, "cd": True},
        "provenance": "base-table:dim3",
    },
    "CD3s_02": {
        "dim": 3, "params": (), "excluded": {},
        "products": ((1, 1, "1", 3), (2, 2, "1", 3)),
        "expected": {"ann": 1, "cd": True},
        "provenance": "base-table:dim3",
    },
    "CD3s_03": {
        "dim": 3, "params": (), "excluded": {},
        "products": ((1, 2, "1", 3), (2, 1, "-1", 3)),
        "expected": {"ann": 1, "cd": True},
        "provenance": "base-table:dim3",
    },
    "CD3s_04": {
        "dim": 3, "params": ("lambda",), "excluded": {},
        "products": ((1, 1, "lambda", 3), (2, 1, "1", 3), (2, 2, "1", 3)),
        "expected": {"ann": 1, "cd": True},
        "provenance": "base-table:dim3",
    },
    "CD4_05": {
        "dim": 4, "params": (), "excluded": {},
        "products": ((1, 1, "1", 2), (2, 1, "1", 4), (2, 2, "1", 3)),
        "expected": {"ann": 2, "cd": True},
        "provenance": "base-table:dim4-ann2",
    },
    "CD4_06": {
        "dim": 4, "params": (), "excluded": {},
        "products": ((1, 1, "1", 2), (1, 2, "1", 4), (2, 1, "1", 3)),
        "expected": {"ann": 2, "cd": True},
        "provenance": "base-table:dim4-ann2",
    },
    "CD4_07": {
        "dim": 4, "params": ("lambda",), "excluded": {},
        "products": ((1, 1, "1", 2), (1, 2, "1", 4), (2, 1, "lambda", 4),
                     (2, 2, "1", 3)),
        "expected": {"ann": 2, "cd": True},
        "provenance": "base-table:dim4-ann2",
    },
}

# Named cocycle dictionaries for the four extensible 3-dim algebras.
# Each form is a list of (coeff-expr, i, j) terms; cd marks which of the
# seven representatives span the cd-compatible part of the quotient.
SETUPS = {
    "CD3_01": {
        "forms": (
            (("1", 1, 2),), (("1", 2, 1),), (("1", 1, 3),), (("1", 3, 1),),
            (("1", 2, 3),), (("1", 3, 2),), (("1", 3, 3),),
        ),
        "cd": (1, 2),
        "aut": {
            "rows": (("x", "0", "0"), ("0", "x^2", "0"), ("y", "0", "x^4")),
            "nonzero": ("x",),
        },
        "transform": (
            "x^2*(x*a1+y*a6)", "x^2*(x*a2+y*a5)", "x^4*(x*a3+y*a7)",
            "x^4*(x*a4+y*a7)", "x^6*a5", "x^6*a6", "x^8*a7",
        ),
        "b2": ((("1", 1, 1),), (("1", 2, 2),)),
    },
    "CD3_02": {
        "forms": (
            (("1", 1, 2),), (("1", 2, 1),), (("1", 1, 3),), (("1", 3, 1),),
            (("1", 2, 3),), (("1", 3, 2),), (("1", 3, 3),),
        ),
        "cd": (1, 2),
        "aut": {
            "rows": (("1", "0", "0"), ("0", "1", "0"), ("x", "0", "1")),
            "nonzero": (),
        },
        "transform": (
            "a1+x*a6", "a2+x*a5", "a3+x*a7", "a4+x*a7", "a5", "a6", "a7",
        ),
        "b2": ((("1", 1, 1),), (("1", 2, 1), ("1", 2, 2))),
    },
    "CD3_03": {
        "forms": (
            (("1", 1, 2),), (("1", 2, 2),), (("1", 1, 3), ("-2", 3, 1)),
            (("1", 3, 1),), (("1", 2, 3),), (("1", 3, 2),), (("1", 3, 3),),
        ),
        "cd": (1, 2, 3),
        "aut": {
            "rows": (("x", "0", "0"), ("y", "x^2", "0"), ("z", "x*y", "x^3")),
            "nonzero": ("x",),
        },
        "transform": (
            "(a1*x^2+(a2+a3)*x*y+a5*y^2+a6*x*z+a7*y*z)*x",
            "(a2*x^2+(a5+a6)*x*y+a7*y^2)*x^2",
            "(a3*x+a5*y+a7*z)*x^3",
            "(a4*x+(2*a5+a6)*y+3*a7*z)*x^3",
            "(a5*x+a7*y)*x^4",
            "(a6*x+a7*y)*x^4",
            "a7*x^6",
        ),
        "b2": ((("1", 1, 1),), (("1", 2, 1),)),
    },
    "CD3_04": {
        "forms": (
            (("lambda-2", 1, 3), ("-(2*lambda-1)", 3, 1)),
            (("1", 2, 1),), (("1", 2, 2),),
            (("1", 1, 3), ("-2", 3, 1)),
            (("1", 2, 3),), (("1", 3, 2),), (("1", 3, 3),),
        ),
        "cd": (1, 2, 3),
        "aut": {
            "rows": (("x", "0", "0"), ("y", "x^2", "0"),
                     ("z", "(lambda+1)*x*y", "x^3")),
            "nonzero": ("x",),
        },
        "transform": (
            "(x^3/3)*(3*x*a1-y*(2*a5+a6)-3*z*a7)",
            "x*(x^2*a2+y*(1+lambda)*(z*a7*(1-lambda)+y*(a6-a5*lambda))"
            "+x*(z*(a5-a6*lambda)-y*(a3*(lambda-1)"
            "+a1*(lambda-1)*(lambda+1)^2+a4*(2+3*lambda+lambda^2))))",
            "x^2*(x^2*a3+x*y*(a5+a6)*(1+lambda)+y^2*a7*(lambda+1)^2)",
            "(x^3/3)*(3*x*a4+y*a6*(lambda-2)+3*z*a7*(lambda-1)"
            "+y*a5*(2*lambda-1))",
            "x^4*(x*a5+y*a7*(lambda+1))",
            "x^4*(x*a6+y*a7*(lambda+1))",
            "x^6*a7",
        ),
        "b2": ((("1", 1, 1),), (("1", 1, 2), ("lambda", 2, 1))),
    },
}

_N4_EXPECTED = {"ann": 1, "cd": False}


def _entry(base, params, excluded, products, cocycle, base_params=None):
    return {
        "dim": 4, "params": params, "excluded": excluded,
        "products": products, "base": base,
        "base_params": base_params or {}, "cocycle": cocycle,
        "expected": dict(_N4_EXPECTED),
        "provenance": "orbit-table:" + base,
    }


N4 = {
    "N4_01": _entry("CD3_01", ("alpha",), {}, (
        (1, 1, "1", 2), (1, 2, "alpha", 4), (1, 3, "1", 4), (2, 1, "1", 4),
        (2, 2, "1", 3),
    ), (("alpha", 1), ("1", 2), ("1", 3))),
    "N4_02": _entry("CD3_01", ("alpha", "beta", "gamma", "delta"), {}, (
        (1, 1, "1", 2), (1, 2, "alpha", 4), (1, 3, "gamma", 4),
        (2, 1, "beta", 4), (2, 2, "1", 3), (2, 3, "delta", 4),
        (3, 2, "1", 4), (3, 3, "1", 4),
    ), (("alpha", 1), ("beta", 2), ("gamma", 3), ("delta", 5), ("1", 6),
        ("1", 7))),
    "N4_03": _entry("CD3_01", ("alpha",), {}, (
        (1, 1, "1", 2), (1, 2, "alpha", 4), (1, 3, "1", 4), (2, 2, "1", 3),
        (2, 3, "1", 4),
    ), (("alpha", 1), ("1", 3), ("1", 5))),
    "N4_04": _entry("CD3_01", ("alpha", "beta", "gamma"), {}, (
        (1, 1, "1", 2), (1, 2, "alpha", 4), (1, 3, "gamma", 4),
        (2, 1, "beta", 4), (2, 2, "1", 3), (2, 3, "1", 4), (3, 3, "1", 4),
    ), (("alpha", 1), ("beta", 2), ("gamma", 3), ("1", 5), ("1", 7))),
    "N4_05": _entry("CD3_01", ("alpha", "beta"), {}, (
        (1, 1, "1", 2), (1, 2, "alpha", 4), (1, 3, "1", 4), (2, 1, "beta", 4),
        (2, 2, "1", 3), (3, 3, "1", 4),
    ), (("alpha", 1), ("beta", 2), ("1", 3), ("1", 7))),
    "N4_06": _entry("CD3_01", ("alpha",), {}, (
        (1, 1, "1", 2), (1, 2, "alpha", 4), (2, 1, "1", 4), (2, 2, "1", 3),
        (3, 3, "1", 4),
    ), (("alpha", 1), ("1", 2), ("1", 7))),
    "N4_07": _entry("CD3_01", (), {}, (
        (1, 1, "1", 2), (1, 2, "1", 4), (1, 3, "1", 4), (2, 2, "1", 3),
    ), (("1", 1), ("1", 3))),
    "N4_08": _entry("CD3_01", ("alpha", "beta"), {}, (
        (1, 1, "1", 2), (1, 2, "1", 4), (1, 3, "beta", 4), (2, 1, "alpha", 4),
        (2, 2, "1", 3), (3, 1, "1", 4),
    ), (("1", 1), ("alpha", 2), ("beta", 3), ("1", 4))),
    "N4_09": _entry("CD3_01", ("alpha", "beta"), {}, (
        (1, 1, "1", 2), (1, 2, "alpha", 4), (1, 3, "beta", 4), (2, 2, "1", 3),
        (2, 3, "1", 4), (3, 1, "1", 4),
    ), (("alpha", 1), ("beta", 3), ("1", 4), ("1", 5))),
    "N4_10": _entry("CD3_01", (), {}, (
        (1, 1, "1", 2), (1, 2, "1", 4), (2, 2, "1", 3), (2, 3, "1", 4),
    ), (("1", 1), ("1", 5))),
    "N4_11": _entry("CD3_01", (), {}, (
        (1, 1, "1", 2), (1, 2, "1", 4), (2, 2, "1", 3), (3, 3, "1", 4),
    ), (("1", 1), ("1", 7))),
    "N4_12": _entry("CD3_01", ("alpha",), {}, (
        (1, 1, "1", 2), (1, 3, "alpha", 4), (2, 1, "1", 4), (2, 2, "1", 3),
        (3, 1, "1", 4),
    ), (("1", 2), ("alpha", 3), ("1", 4))),
    "N4_13": _entry("CD3_01", ("alpha", "beta", "gamma"), {}, (
        (1, 1, "1", 2), (1, 3, "beta", 4), (2, 1, "alpha", 4), (2, 2, "1", 3),
        (2, 3, "gamma", 4), (3, 1, "1", 4), (3, 2, "1", 4),
    ), (("alpha", 2), ("beta", 3), ("1", 4), ("gamma", 5), ("1", 6))),
    "N4_14": _entry("CD3_01", ("alpha", "beta"), {}, (
        (1, 1, "1", 2), (1, 3, "1", 4), (2, 1, "alpha", 4), (2, 2, "1", 3),
        (2, 3, "beta", 4), (3, 2, "1", 4),
    ), (("alpha", 2), ("1", 3), ("beta", 5), ("1", 6))),
    "N4_15": _entry("CD3_01", ("alpha",), {}, (
        (1, 1, "1", 2), (2, 1, "1", 4), (2, 2, "1", 3), (2, 3, "alpha", 4),
        (3, 2, "1", 4),
    ), (("1", 2), ("alpha", 5), ("1", 6))),
    "N4_16": _entry("CD3_01", ("alpha",), {}, (
        (1, 1, "1", 2), (1, 3, "alpha", 4), (2, 2, "1", 3), (3, 1, "1", 4),
    ), (("alpha", 3), ("1", 4))),
    "N4_17": _entry("CD3_01", (), {}, (
        (1, 1, "1", 2), (1, 3, "1", 4), (2, 2, "1", 3),
    ), (("1", 3),)),
    "N4_18": _entry("CD3_01", (), {}, (
        (1, 1, "1", 2), (2, 2, "1", 3), (2, 3, "1", 4),
    ), (("1", 5),)),
    "N4_19": _entry("CD3_01", ("alpha",), {}, (
        (1, 1, "1", 2), (2, 2, "1", 3), (2, 3, "alpha", 4), (3, 2, "1", 4),
    ), (("alpha", 5), ("1", 6))),
    "N4_20": _entry("CD3_01", (), {}, (
        (1, 1, "1", 2), (2, 2, "1", 3), (3, 3, "1", 4),
    ), (("1", 7),)),
    "N4_21": _entry("CD3_02", ("alpha", "beta"), {}, (
        (1, 1, "1", 2), (1, 2, "alpha", 4), (1, 3, "1", 4), (2, 1, "1", 3),
        (2, 1, "beta", 4), (2, 2, "1", 3),
    ), (("alpha", 1), ("beta", 2), ("1", 3))),
    "N4_22": _entry("CD3_02", ("alpha", "beta", "gamma"), {}, (
        (1, 1, "1", 2), (1, 2, "alpha", 4), (1, 3, "gamma", 4),
        (2, 1, "1", 3), (2, 1, "beta", 4), (2, 2, "1", 3), (3, 1, "1", 4),
    ), (("alpha", 1), ("beta", 2), ("gamma", 3), ("1", 4))),
    "N4_23": _entry("CD3_02", ("alpha", "beta", "gamma"), {}, (
        (1, 1, "1", 2), (1, 2, "alpha", 4), (1, 3, "beta", 4), (2, 1, "1", 3),
        (2, 2, "1", 3), (2, 3, "1", 4), (3, 1, "gamma", 4),
    ), (("alpha", 1), ("beta", 3), ("gamma", 4), ("1", 5))),
    "N4_24": _entry("CD3_02", ("alpha", "beta", "gamma", "delta"), {}, (
        (1, 1, "1", 2), (1, 3, "beta", 4), (2, 1, "1", 3), (2, 1, "alpha", 4),
        (2, 2, "1", 3), (2, 3, "delta", 4), (3, 1, "gamma", 4),
        (3, 2, "1", 4),
    ), (("alpha", 2), ("beta", 3), ("gamma", 4), ("delta", 5), ("1", 6))),
    "N4_25": _entry("CD3_02", ("alpha", "beta", "gamma", "delta", "epsilon"),
                    {}, (
        (1, 1, "1", 2), (1, 2, "alpha", 4), (2, 1, "1", 3), (2, 1, "beta", 4),
        (2, 2, "1", 3), (2, 3, "delta", 4), (3, 1, "gamma", 4),
        (3, 2, "epsilon", 4), (3, 3, "1", 4),
    ), (("alpha", 1), ("beta", 2), ("gamma", 4), ("delta", 5),
        ("epsilon", 6), ("1", 7))),
    "N4_26": _entry("CD3_03", ("alpha",), {}, (
        (1, 1, "1", 2), (1, 2, "1", 4), (1, 3, "-alpha", 4), (2, 1, "1", 3),
        (2, 2, "alpha", 4), (3, 1, "1+2*alpha", 4),
    ), (("1", 1), ("alpha", 2), ("-alpha", 3), ("1", 4))),
    "N4_27": _entry("CD3_03", ("alpha", "beta"), {}, (
        (1, 1, "1", 2), (1, 2, "alpha", 4), (2, 1, "1", 3), (2, 2, "beta", 4),
        (2, 3, "1", 4), (3, 1, "1", 4),
    ), (("alpha", 1), ("beta", 2), ("1", 4), ("1", 5))),
    "N4_28": _entry("CD3_03", ("alpha", "beta", "gamma"), {}, (
        (1, 1, "1", 2), (1, 2, "alpha", 4), (2, 1, "1", 3), (2, 2, "beta", 4),
        (2, 3, "1", 4), (3, 1, "gamma", 4), (3, 3, "1", 4),
    ), (("alpha", 1), ("beta", 2), ("gamma", 4), ("1", 5), ("1", 7))),
    "N4_29": _entry("CD3_03", ("alpha", "beta"), {}, (
        (1, 1, "1", 2), (1, 2, "alpha", 4), (2, 2, "beta", 4), (2, 1, "1", 3),
        (3, 1, "1", 4), (3, 3, "1", 4),
    ), (("alpha", 1), ("beta", 2), ("1", 4), ("1", 7))),
    "N4_30": _entry("CD3_03", ("alpha",), {}, (
        (1, 1, "1", 2), (1, 2, "alpha", 4), (2, 1, "1", 3), (2, 2, "1", 4),
        (2, 3, "1", 4),
    ), (("alpha", 1), ("1", 2), ("1", 5))),
    "N4_31": _entry("CD3_03", ("alpha",), {}, (
        (1, 1, "1", 2), (1, 2, "alpha", 4), (2, 1, "1", 3), (2, 2, "1", 4),
        (3, 3, "1", 4),
    ), (("alpha", 1), ("1", 2), ("1", 7))),
    "N4_32": _entry("CD3_03", (), {}, (
        (1, 1, "1", 2), (1, 2, "1", 4), (2, 1, "1", 3), (2, 3, "1", 4),
    ), (("1", 1), ("1", 5))),
    "N4_33": _entry("CD3_03", (), {}, (
        (1, 1, "1", 2), (1, 2, "1", 4), (2, 1, "1", 3), (3, 3, "1", 4),
    ), (("1", 1), ("1", 7))),
    "N4_34": _entry("CD3_03", ("alpha", "beta"), {}, (
        (1, 1, "1", 2), (1, 3, "beta", 4), (2, 1, "1", 3), (2, 2, "alpha", 4),
        (3, 1, "1-2*beta", 4),
    ), (("alpha", 2), ("beta", 3), ("1", 4))),
    "N4_35": _entry("CD3_03", ("alpha",), {}, (
        (1, 1, "1", 2), (1, 3, "alpha", 4), (2, 1, "1", 3), (2, 2, "1", 4),
        (3, 1, "-2*alpha", 4), (3, 2, "1", 4),
    ), (("1", 2), ("alpha", 3), ("1", 6))),
    "N4_36": _entry("CD3_03", ("alpha", "beta"), {"beta": ("0",)}, (
        (1, 1, "1", 2), (2, 1, "1", 3), (2, 2, "alpha", 4), (2, 3, "beta", 4),
        (3, 1, "1", 4), (3, 2, "1", 4),
    ), (("alpha", 2), ("1", 4), ("beta", 5), ("1", 6))),
    "N4_37": _entry("CD3_03", ("alpha",), {"alpha": ("0",)}, (
        (1, 1, "1", 2), (2, 1, "1", 3), (2, 2, "1", 4), (2, 3, "alpha", 4),
        (3, 2, "1", 4),
    ), (("1", 2), ("alpha", 5), ("1", 6))),
    "N4_38": _entry("CD3_03", (), {}, (
        (1, 1, "1", 2), (1, 3, "1", 4), (2, 1, "1", 3), (3, 1, "-2", 4),
        (3, 2, "1", 4),
    ), (("1", 3), ("1", 6))),
    "N4_39": _entry("CD3_03", (), {}, (
        (1, 1, "1", 2), (2, 1, "1", 3), (2, 3, "1", 4),
    ), (("1", 5),)),
    "N4_40": _entry("CD3_03", ("alpha",), {}, (
        (1, 1, "1", 2), (2, 1, "1", 3), (2, 3, "alpha", 4), (3, 2, "1", 4),
    ), (("alpha", 5), ("1", 6))),
    "N4_41": _entry("CD3_03", (), {}, (
        (1, 1, "1", 2), (2, 1, "1", 3), (3, 3, "1", 4),
    ), (("1", 7),)),
    "N4_42": _entry("CD3_04", ("lambda", "alpha"), {"lambda": ("1",)}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (1, 3, "alpha*(lambda-2)+1", 4),
        (2, 1, "lambda", 3), (2, 1, "1", 4),
        (2, 2, "(lambda+1)*((lambda^2-1)*alpha+lambda+2)/(1-lambda)", 4),
        (3, 1, "alpha*(1-2*lambda)-2", 4),
    ), (("alpha", 1), ("1", 2),
        ("(lambda+1)*((lambda^2-1)*alpha+lambda+2)/(1-lambda)", 3),
        ("1", 4))),
    "N4_43": _entry("CD3_04", ("alpha", "beta"), {}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (1, 3, "-5*alpha/2", 4),
        (2, 1, "-1/2", 3), (2, 1, "beta", 4), (2, 2, "1", 4),
        (2, 3, "-1/2", 4), (3, 1, "2*alpha", 4), (3, 2, "1", 4),
    ), (("alpha", 1), ("beta", 2), ("1", 3), ("-1/2", 5), ("1", 6)),
        base_params={"lambda": "-1/2"}),
    "N4_44": _entry("CD3_04", ("alpha",), {}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (1, 3, "-5*alpha/2", 4),
        (2, 1, "-1/2", 3), (2, 1, "1", 4), (2, 3, "-1/2", 4),
        (3, 1, "2*alpha", 4), (3, 2, "1", 4),
    ), (("alpha", 1), ("1", 2), ("-1/2", 5), ("1", 6)),
        base_params={"lambda": "-1/2"}),
    "N4_45": _entry("CD3_04", ("lambda", "alpha", "beta"), {}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (1, 3, "alpha*(lambda-2)+1", 4),
        (2, 1, "lambda", 3), (2, 2, "beta", 4),
        (3, 1, "alpha*(1-2*lambda)-2", 4),
    ), (("alpha", 1), ("beta", 3), ("1", 4))),
    "N4_46": _entry("CD3_04", ("lambda", "alpha"), {"lambda": ("-1/2",)}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (1, 3, "alpha*(lambda-2)", 4),
        (2, 1, "lambda", 3), (2, 2, "1", 4), (2, 3, "-1/2", 4),
        (3, 1, "alpha*(1-2*lambda)", 4), (3, 2, "1", 4),
    ), (("alpha", 1), ("1", 3), ("-1/2", 5), ("1", 6))),
    "N4_47": _entry("CD3_04", (), {}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (1, 3, "-5/2", 4), (2, 1, "-1/2", 3),
        (2, 3, "-1/2", 4), (3, 1, "2", 4), (3, 2, "1", 4),
    ), (("1", 1), ("-1/2", 5), ("1", 6)),
        base_params={"lambda": "-1/2"}),
    "N4_48": _entry("CD3_04", ("lambda", "alpha", "beta"),
                    {"lambda": ("-1/2",)}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (1, 3, "1", 4), (2, 1, "lambda", 3),
        (2, 1, "alpha", 4), (2, 2, "beta", 4), (2, 3, "lambda", 4),
        (3, 1, "-2", 4), (3, 2, "1", 4),
    ), (("alpha", 2), ("beta", 3), ("1", 4), ("lambda", 5), ("1", 6))),
    "N4_49": _entry("CD3_04", ("alpha", "beta"), {}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (1, 3, "beta", 4), (2, 1, "-1", 3),
        (2, 1, "alpha", 4), (2, 2, "1", 4), (2, 3, "1", 4),
        (3, 1, "-2*beta", 4), (3, 2, "1", 4), (3, 3, "1", 4),
    ), (("alpha", 2), ("1", 3), ("beta", 4), ("1", 5), ("1", 6), ("1", 7)),
        base_params={"lambda": "-1"}),
    "N4_50": _entry("CD3_04", ("lambda", "alpha", "beta"),
                    {"lambda": ("-1",)}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (1, 3, "1", 4), (2, 1, "lambda", 3),
        (2, 1, "alpha", 4), (2, 2, "beta", 4), (3, 1, "-2", 4),
        (3, 3, "1", 4),
    ), (("alpha", 2), ("beta", 3), ("1", 4), ("1", 7))),
    "N4_51": _entry("CD3_04", ("lambda", "alpha"), {"lambda": ("-1/2",)}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (2, 1, "lambda", 3),
        (2, 1, "alpha", 4), (2, 2, "1", 4), (2, 3, "lambda", 4),
        (3, 2, "1", 4),
    ), (("alpha", 2), ("1", 3), ("lambda", 5), ("1", 6))),
    "N4_52": _entry("CD3_04", ("lambda", "alpha", "beta", "gamma"),
                    {"gamma": ("1",)}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (2, 1, "lambda", 3),
        (2, 1, "alpha", 4), (2, 2, "beta", 4), (2, 3, "gamma", 4),
        (3, 2, "1", 4), (3, 3, "1", 4),
    ), (("alpha", 2), ("beta", 3), ("gamma", 5), ("1", 6), ("1", 7))),
    "N4_53": _entry("CD3_04", ("lambda", "alpha", "beta"), {}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (2, 1, "lambda", 3),
        (2, 1, "alpha", 4), (2, 2, "beta", 4), (2, 3, "1", 4),
        (3, 3, "1", 4),
    ), (("alpha", 2), ("beta", 3), ("1", 5), ("1", 7))),
    "N4_54": _entry("CD3_04", ("lambda", "alpha"), {"lambda": ("-1",)}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (2, 1, "lambda", 3),
        (2, 1, "alpha", 4), (2, 2, "1", 4), (3, 3, "1", 4),
    ), (("alpha", 2), ("1", 3), ("1", 7))),
    "N4_55": _entry("CD3_04", ("lambda",), {"lambda": ("-1/2",)}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (2, 1, "lambda", 3), (2, 1, "1", 4),
        (2, 3, "lambda", 4), (3, 2, "1", 4),
    ), (("1", 2), ("lambda", 5), ("1", 6))),
    "N4_56": _entry("CD3_04", ("lambda",), {}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (2, 1, "lambda", 3), (2, 1, "1", 4),
        (3, 3, "1", 4),
    ), (("1", 2), ("1", 7))),
    "N4_57": _entry("CD3_04", ("lambda", "alpha"), {}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (1, 3, "1", 4), (2, 1, "lambda", 3),
        (2, 2, "alpha", 4), (2, 3, "1", 4), (3, 1, "-2", 4),
    ), (("alpha", 3), ("1", 4), ("1", 5))),
    "N4_58": _entry("CD3_04", ("lambda", "alpha", "beta"),
                    {"beta": ("-1/2", "lambda")}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (1, 3, "1", 4), (2, 1, "lambda", 3),
        (2, 2, "alpha", 4), (2, 3, "beta", 4), (3, 1, "-2", 4),
        (3, 2, "1", 4),
    ), (("alpha", 3), ("1", 4), ("beta", 5), ("1", 6))),
    "N4_59": _entry("CD3_04", ("alpha", "beta"), {"alpha": ("1",)}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (1, 3, "beta", 4), (2, 1, "-1", 3),
        (2, 2, "alpha", 4), (2, 3, "1", 4), (3, 1, "-2*beta", 4),
        (3, 2, "1", 4), (3, 3, "1", 4),
    ), (("alpha", 3), ("beta", 4), ("1", 5), ("1", 6), ("1", 7)),
        base_params={"lambda": "-1"}),
    "N4_60": _entry("CD3_04", ("alpha",), {"alpha": ("0",)}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (1, 3, "1", 4), (2, 1, "-1", 3),
        (2, 2, "alpha", 4), (3, 1, "-2", 4), (3, 3, "1", 4),
    ), (("alpha", 3), ("1", 4), ("1", 7)),
        base_params={"lambda": "-1"}),
    "N4_61": _entry("CD3_04", ("lambda",), {}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (2, 1, "lambda", 3), (2, 2, "1", 4),
        (2, 3, "1", 4),
    ), (("1", 3), ("1", 5))),
    "N4_62": _entry("CD3_04", ("lambda", "alpha"),
                    {"alpha": ("-1/2", "lambda")}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (2, 1, "lambda", 3), (2, 2, "1", 4),
        (2, 3, "alpha", 4), (3, 2, "1", 4),
    ), (("1", 3), ("alpha", 5), ("1", 6))),
    "N4_63": _entry("CD3_04", (), {}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (2, 1, "-1", 3), (2, 2, "1", 4),
        (3, 3, "1", 4),
    ), (("1", 3), ("1", 7)),
        base_params={"lambda": "-1"}),
    "N4_64": _entry("CD3_04", ("lambda",), {}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (2, 1, "lambda", 3), (2, 3, "1", 4),
    ), (("1", 5),)),
    "N4_65": _entry("CD3_04", ("lambda", "alpha"), {}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (2, 1, "lambda", 3),
        (2, 3, "alpha", 4), (3, 2, "1", 4),
    ), (("alpha", 5), ("1", 6))),
    "N4_66": _entry("CD3_04", ("lambda",), {}, (
        (1, 1, "1", 2), (1, 2, "1", 3), (2, 1, "lambda", 3), (3, 3, "1", 4),
    ), (("1", 7),)),
}

# Witnessed parameter symmetries: (entry id, images of its parameters, field
# needed to express the images).
RELATIONS = (
    ("N4_02", ("-alpha", "-beta", "-gamma", "delta"), "Q"),
    ("N4_04", ("-alpha", "-beta", "-gamma"), "Q"),
    ("N4_05", ("omega*alpha", "omega*beta"), "QZ12"),
    ("N4_29", ("-alpha", "beta"), "Q"),
    ("N4_31", ("-alpha",), "Q"),
    ("N4_50", ("lambda", "-alpha", "beta"), "Q"),
    ("N4_54", ("lambda", "-alpha"), "Q"),
)

# Stated symmetries whose entries live in external classifications; stored
# for completeness, never instantiated.
STUB_RELATIONS = (
    ("D4_01(lambda,0,beta)", "D4_02(lambda,0,beta)", None),
    ("D4_02(lambda,0,beta)", "D4_04(lambda,beta)", None),
    ("D4_01(lambda,alpha,0)", "D4_02(lambda,alpha,0)", "alpha != -1"),
    ("D4_02(lambda,alpha,0)", "D4_10(lambda,alpha)", None),
    ("D4_01(lambda,-1,0)", "D4_11(lambda,0)", None),
    ("D4_03(lambda,0)", "D4_09(lambda,0)", None),
    ("D4_03(lambda,(1-Theta)^-1)", "D4_05(lambda,0)", "lambda != 0"),
    ("D4_03(lambda,Theta^-1)", "D4_06(lambda,0)", None),
    ("D4_04(lambda,0)", "D4_10(lambda,0)", None),
    ("D4_05(1/4,alpha)", "D4_06(1/4,alpha)", None),
    ("D4_07(1/4)", "D4_08(1/4)", None),
    ("D4_05(0,alpha)", "D4_07(0)", None),
    ("D4_07(0)", "D4_23(0)", None),
    ("D4_23(0)", "D4_25(0)", None),
    ("D4_25(0)", "D4_40(0)", None),
    ("D4_12(lambda,0)", "D4_18(lambda,0)", None),
    ("D4_12(1/4,alpha)", "D4_13(1/4,alpha)", None),
    ("D4_12(0,alpha)", "D4_14(0,alpha)", "alpha != -1"),
    ("D4_12(0,-1)", "D4_17(0)", None),
    ("D4_13(lambda,0)", "D4_19(lambda,0)", None),
    ("D4_14(lambda,0)", "D4_20(lambda,0)", None),
    ("D4_14(1/4,alpha)", "D4_15(1/4,alpha)", None),
    ("D4_15(lambda,0)", "D4_21(lambda,0)", None),
    ("D4_18(1/4,alpha)", "D4_19(1/4,alpha)", None),
    ("D4_18(0,0)", "D4_22(0)", None),
    ("D4_22(0)", "D4_24(0)", None),
    ("D4_18(1/4,-1)", "D4_30(1/4)", None),
    ("D4_30(1/4)", "D4_31(1/4)", None),
    ("D4_20(1/4,alpha)", "D4_21(1/4,alpha)", None),
    ("D4_20(1/4,-1)", "D4_32(1/4)", None),
    ("D4_32(1/4)", "D4_33(1/4)", None),
    ("D4_22(1/4)", "D4_23(1/4)", None),
    ("D4_23(1/4)", "D4_24(1/4)", None),
    ("D4_24(1/4)", "D4_25(1/4)", None),
    ("D4_25(1/4)", "D4_26(1/4)", None),
    ("D4_26(1/4)", "D4_27(1/4)", None),
    ("D4_27(1/4)", "D4_28(1/4)", None),
    ("D4_28(1/4)", "D4_29(1/4)", None),
    ("D4_37(1/4)", "D4_38(1/4)", None),
    ("D4_39(1/4)", "D4_40(1/4)", None),
    ("CD4_43(alpha)", "CD4_43(-alpha)", None),
    ("CD4_44(alpha,beta,gamma)", "CD4_44(alpha,-beta,-gamma)", None),
    ("CD4_47(alpha,beta)", "CD4_47(alpha,-beta)", None),
    ("CD4_50(alpha)", "CD4_50(-alpha)", None),
    ("CD4_54(alpha)", "CD4_54(-alpha-1)", None),
    ("CD4_57(alpha,beta)", "CD4_57(alpha+beta,-beta)", None),
    ("CD4_59(alpha,beta)", "CD4_59(alpha,-beta)", None),
    ("CD4_91(lambda,alpha)", "CD4_91(lambda,-alpha)", None),
    ("CD4_92(lambda,alpha)", "CD4_92(lambda,-alpha)", None),
    ("CD4_93(alpha)", "CD4_93(-alpha)", None),
    ("CD4_94(alpha,beta)", "CD4_94(-alpha,beta)", None),
    ("CD4_95(alpha)", "CD4_95(-alpha)", None),
    ("CD4_100(alpha)", "CD4_100(-alpha)", None),
    ("CD4_101(alpha,beta)", "CD4_101(-alpha,-beta)", None),
    ("CD4_109(lambda,alpha)", "CD4_109(lambda,-alpha)", None),
    ("CD4_112(lambda,alpha,beta,gamma)",
     "CD4_112(lambda,-alpha,beta,-gamma)", None),
    ("CD4_112(lambda,alpha,beta,gamma)",
     "CD4_112(lambda,*,1/lambda-beta,*)",
     "irrational images; not expressible here"),
)

# Ids cited to external classifications, kept as stubs.
STUB_IDS = tuple("D4_%02d" % k for k in range(1, 41)) + tuple(
    "CD4_%02d" % k if k < 100 else "CD4_%d" % k
    for k in (43, 44, 47, 50, 54, 57, 59)
) + tuple("CD4_%d" % k for k in range(79, 86)) + tuple(
    "CD4_%d" % k for k in range(87, 113)
)

# Entries whose extensions never satisfy the three commutator-triple
# identities from the alternating family; a pair (param, value) keeps the
# entry listed only while param != value.
ALIA_EXCLUDED = {
    "N4_25": None, "N4_28": None, "N4_29": None, "N4_31": None,
    "N4_33": None, "N4_41": None, "N4_49": None,
    "N4_50": ("lambda", "1"), "N4_52": ("lambda", "1"),
    "N4_53": ("lambda", "1"), "N4_54": ("lambda", "1"),
    "N4_56": ("lambda", "1"), "N4_59": None, "N4_60": None, "N4_63": None,
    "N4_66": ("lambda", "1"),
}

# Dimension of the shared 0-/1-/two-sided alternating cocycle space on each
# 3-dim algebra; 9 means all of Z^2, 8 means everything clear of (3,3).
ALIA_DIMS = {
    "CD3_01": 9, "CD3_02": 8, "CD3_03": 8,
    "CD3s_01": 9, "CD3s_02": 9, "CD3s_03": 8, "CD3s_04": 8,
}


def alia_dim_cd3_04(lam_is_one):
    """0-/1-/two-sided alternating cocycle dimension on CD3_04."""
    return 9 if lam_is_one else 8

# Deterministic spot-check pairs for the distinctness sweep.
DISTINCT_PAIRS = (
    ("N4_01", "N4_02"), ("N4_02", "N4_06"), ("N4_03", "N4_09"),
    ("N4_05", "N4_06"), ("N4_07", "N4_17"), ("N4_08", "N4_41"),
    ("N4_10", "N4_18"), ("N4_11", "N4_20"), ("N4_12", "N4_13"),
    ("N4_13", "N4_14"), ("N4_15", "N4_19"), ("N4_16", "N4_17"),
    ("N4_17", "N4_18"), ("N4_21", "N4_22"), ("N4_23", "N4_24"),
    ("N4_26", "N4_34"), ("N4_32", "N4_39"), ("N4_38", "N4_40"),
    ("N4_42", "N4_45"), ("N4_64", "N4_65"),
)

SCHEMA_VERSION = 1
