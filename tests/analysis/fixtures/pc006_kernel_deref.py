"""PC006 fixture: row-path handle access inside columnar kernel scopes."""


def bad_named_kernel(rows):
    # A kernel passed by name below: derefs a handle per row.
    return [h.deref().x for h in rows]  # fires (deref in kernel def)


def make_terms(arg, lambda_from_native):
    good = lambda_from_native(
        [arg], lambda p: p.x * 2.0,
        kernel=lambda rows: rows.column("x") * 2.0,  # clean: array code
    )
    bad_inline = lambda_from_native(
        [arg], lambda p: p.x,
        kernel=lambda rows: rows.facade(0).x,  # fires (facade in kernel)
    )
    bad_named = lambda_from_native([arg], lambda p: p.x,
                                   kernel=bad_named_kernel)
    return good, bad_inline, bad_named


def row_path_elsewhere(handle):
    # Outside any kernel scope: deref is the object path's daily bread.
    return handle.deref()


class Thing:
    @staticmethod
    def weights_batch(rows):
        # A whole-page form named the way kernels are: found wherever the
        # ``kernel=`` that passes it lives.
        return [h.deref().w for h in rows]  # fires (deref in a *_batch)

    @staticmethod
    def totals(rows):
        return _sum_rows(rows)  # clean itself; its helper is not


def _sum_rows(rows):
    return [make_object(Thing, w=h.w) for h in rows]  # fires (helper)


def make_method_terms(arg, lambda_from_native):
    return lambda_from_native([arg], lambda t: t.w, kernel=Thing.totals)
