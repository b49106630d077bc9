"""Pins the auto-built CATALOG (kgray/queries/__init__.py): the package
split must never drop an entry, mispair an oracle, or double-register a
query defined in one submodule and imported into another."""

import kgray.queries as Q


def test_catalog_pairs_fn_and_sql_by_convention():
    assert len(Q.CATALOG) >= 195
    for key, (fn, sql) in Q.CATALOG.items():
        assert fn.__name__ == "q_" + key
        # the oracle, when present, is the SQL_<KEY> constant of the
        # function's OWN module (pairing never crosses modules)
        import importlib

        home = importlib.import_module(fn.__module__)
        assert getattr(home, "SQL_" + key.upper(), None) is sql


def test_every_q_function_registered_exactly_once():
    seen = {}
    for m in Q._SUBMODULES:
        import importlib

        mod = importlib.import_module(f"kgray.queries.{m}")
        for n in dir(mod):
            f = getattr(mod, n)
            if n.startswith("q_") and callable(f) \
               and getattr(f, "__module__", "") == mod.__name__:
                assert n not in seen, f"{n} defined in {seen[n]} and {m}"
                seen[n] = m
                assert n[2:] in Q.CATALOG
    assert len(seen) == len(Q.CATALOG)


def test_no_orphan_sql_constants():
    import importlib

    for m in Q._SUBMODULES:
        mod = importlib.import_module(f"kgray.queries.{m}")
        for n in dir(mod):
            if n.startswith("SQL_") and isinstance(getattr(mod, n), str):
                key = n[4:].lower()
                # its q_ twin must exist somewhere in the package
                assert key in Q.CATALOG, f"orphan oracle {n} in {m}"


def test_flat_namespace_compat():
    # consumers import q_*/SQL_* names from the package root
    from kgray.queries import (  # noqa: F401
        CATALOG,
        SQL_TPCH_Q1,
        _query_vec,
        q_tpch_q1,
    )

    # module helpers are not re-exported: duplicate private names (two
    # _ppr_sql, two _fd_sql, two _ZIPF_TOP) must not silently resolve to
    # whichever module was imported first
    assert not hasattr(Q, "_ppr_sql")
    assert not hasattr(Q, "_ZIPF_TOP")


def test_operators_index_is_current(ray_session):
    """OPERATORS.md (scripts/gen_operators.py) must list every
    queries() entry — regenerate it when adding operators."""
    import os

    import __ray_entry__ as entry

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "OPERATORS.md")
    with open(path) as f:
        body = f.read()
    missing = [n for n in entry.queries() if f"`{n}`" not in body]
    assert not missing, f"regenerate OPERATORS.md: missing {missing[:5]}"
