"""The CLI's series and table documents as dicts, which only the tests use.

The CLI writes these documents straight to their JSON text; the tests compare
that text, byte for byte, with ``json.dumps(doc, sort_keys=True, indent=2)``
of the dicts built here.
"""

from brzeta.series import TruncatedSeries


def series_doc(series: TruncatedSeries) -> dict:
    terms = []
    for exps, c in series.items():
        terms.append(
            {
                "monomial": series.alphabet.format_monomial(exps),
                "exponents": list(exps),
                "num": str(c),
                "den": "1",
            }
        )
    return {
        "bound": series.bound,
        "variables": [e.label for e in series.alphabet],
        "terms": terms,
        "display": str(series),
    }


def table_doc(table: dict[int, int]) -> dict:
    return {"coefficients": [{"n": n, "a_n": str(table[n])} for n in sorted(table)]}
