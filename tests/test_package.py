import pytest

import fibval
import fibval.verify


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from fibval import *", namespace)
    assert set(fibval.__all__) <= set(namespace)
    for name in fibval.__all__:
        assert namespace[name] is getattr(fibval, name), name


def test_verify_names_resolve_to_the_verify_module():
    assert fibval.run_verify is fibval.verify.run_verify
    assert fibval.VerifyConfig is fibval.verify.VerifyConfig
    assert fibval.VerifyReport is fibval.verify.VerifyReport


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fibval.no_such_name
    assert not hasattr(fibval, "Mismatch")  # verify's other names are not re-exported


def test_the_coefficient_builder_is_not_library_api():
    # fibval returns valuations; whole coefficients are built by a test helper
    assert len(fibval.__all__) == 28
    assert "fibonomial_exact" not in fibval.__all__
    assert not hasattr(fibval, "fibonomial_exact")
    assert not hasattr(fibval.oracle, "fibonomial_exact")
