import oscillab


def test_every_export_resolves():
    for name in oscillab.__all__:
        assert getattr(oscillab, name) is not None, name
