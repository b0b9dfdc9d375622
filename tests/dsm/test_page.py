"""Tests for pages and protections."""

from repro.dsm.page import PageInfo, PageProtection


def test_protection_semantics():
    assert not PageProtection.NONE.allows_read()
    assert not PageProtection.NONE.allows_write()
    assert PageProtection.READ_ONLY.allows_read()
    assert not PageProtection.READ_ONLY.allows_write()
    assert PageProtection.READ_WRITE.allows_read()
    assert PageProtection.READ_WRITE.allows_write()


def test_page_info_addresses():
    info = PageInfo(page_number=10, home_node=2, page_size=4096)
    assert info.base_address == 40960
    assert info.end_address == 45056
    assert info.contains(40960)
    assert info.contains(45055)
    assert not info.contains(45056)

