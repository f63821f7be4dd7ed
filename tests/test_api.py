"""The package exports only what the README and the CLI use."""

import dctsteg

PUBLIC = {
    "Image8",
    "read_pgm",
    "write_pgm",
    "build_frame",
    "KIND_BYTES",
    "KIND_IMAGE",
    "embed",
    "extract",
    "render",
    "capacity",
    "EmbedReport",
    "StegoContainer",
    "psnr",
    "errors",
}


def test_public_names_are_the_documented_surface():
    assert set(dctsteg.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(dctsteg, name) is not None
