"""Golden output: the sha256 of every file the shipped configs write.

Each shipped config runs once as CSV and once as JSON with ``--manifest``,
and every output file must hash to the value pinned below.  Output writers
may be rewritten freely as long as these bytes hold.

The hashes were recorded with numpy 2.4.6 on x86-64 Linux with numpy's
AVX-512 kernels dispatched, and they hold only there.  The grid files depend
on the last bit of numpy's ``exp``, and ``herald_k0.*`` on that of its
vectorized ``**`` (the ``omega ** arange`` and ``tau ** arange`` rows); both
follow the SIMD kernels numpy dispatches.  With
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` numpy's ``exp``
and ``**`` match libm, and 8 of the 10 cases fail: every grid file moves,
and so does ``herald_k0.*``; only the two table1 cases hold.  A machine or
numpy build without those kernels fails the same way.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from clickcraft.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PROTOCOLS = {
    "fig2": "herald",
    "fig3": "subtract",
    "fig5": "add",
    "fig6": "amplify",
    "table1": "amplify",
}

GOLDEN = {
    ("fig2", "csv"): {
        "herald_k0.csv": "50e6072716d6c0f707d845a69e67925744d4b2c56b81ce5e70cc6d52ae781d4b",
        "herald_k1.csv": "7a0e006dc003078f46e189dfa74bd558231659ef5e9aee668a9089154885f988",
        "herald_k16.csv": "72ac17d02622940abc02b611240dfb4db570eaa804142104278abe99a760c16d",
        "herald_k4.csv": "ea0cdfa42a5d3fbcb17e41fa7dda229d74be0805fcf8408af4e59ae6cac8014d",
        "manifest.json": "db8c06fdf15410e6238d1680e382b9bd8db728ddc1076603e5fcabac124a13f4",
        "summary.json": "0a2e45cd00f61bc79a9680569ebc6548af3d7ae9944c691ed37482e85f288e02",
    },
    ("fig2", "json"): {
        "herald_k0.json": "b85091491f6a9c661a96fdd06663cb6815199f6a258e998d8832f95ca134b8ec",
        "herald_k1.json": "8d1b541bad3579d886fefa534a4ad822e099d8786df6d82fa14e887189874932",
        "herald_k16.json": "3e04d29dfe219ae79eb6daa378c12c035eacfaa3e07898b4cec10d859eb7987c",
        "herald_k4.json": "b8c79d199589fe8091956c506771778af48e9c508e2b7de33448d645f880c136",
        "manifest.json": "57b417d8cf8a282255568fae1df0fb2518b37afbd914c2001f7b72689531e9db",
        "summary.json": "0a2e45cd00f61bc79a9680569ebc6548af3d7ae9944c691ed37482e85f288e02",
    },
    ("fig3", "csv"): {
        "manifest.json": "33a4d4e290e61372c8a3ecaa7a22f68d0c1b5d137a8dcf9fcc8250b9e50d633b",
        "pfunction_k0.csv": "afe1851891ef4aa6865f44676707236bc797a7b05c0c66202e31bf8c7501d6b6",
        "pfunction_k1.csv": "917704c79d4a3909f2be9890048621c19c7c773e8076d1ee458a3e46ee946c3c",
        "pfunction_k2.csv": "58e3365752d9e4a8fd2851c0bcd6d3cc796b5154b5e022a4df2d09485e5dd5ba",
        "pfunction_k3.csv": "f113234355f68c0ede810c0630cd9cb3b2453b775a115609d3e02a5bcebe33cf",
        "summary.json": "c1e94dbbcd5d969974500b720581c5b99e18a15e29c21500c041cb2cf9b4174b",
        "terms_k0.json": "859845a27fcaf1ac7749f618e6f9a640da5be55b3054812853f08833a1c56a0d",
        "terms_k1.json": "eb2cb742f0b4a18cfaf933e31dd17f05c3a405a0f97fc0ce78886cfca14f9f88",
        "terms_k2.json": "e86314cb629bc26aa82138437abf86e23522e8dc2d1c6f2147f1497c61c40b56",
        "terms_k3.json": "5cca0e8263c2fd900da3cd417621a753e0aaa2ec86ac2609463b5b0ba5f140bc",
    },
    ("fig3", "json"): {
        "manifest.json": "a9ee99587e085f8ba599a230729c93bcc9e345d9fe4f889ed77938e56b6e89ea",
        "pfunction_k0.json": "32fd157ada75f7bf83e7174a4e4fcc5b7b92e3869881de61def138df8dc07a4f",
        "pfunction_k1.json": "1df33fa85427112d7d08545e39327ed601e22b8a034543ef1dde0a850554a848",
        "pfunction_k2.json": "a3e1ec33b1cb853c46fd806343ac648ce3527ac337786b675ff6a1d96afe6be8",
        "pfunction_k3.json": "32910af67dda34904dcb3680652d88c892f8bef92401fc997c2aedaf1f074c9b",
        "summary.json": "c1e94dbbcd5d969974500b720581c5b99e18a15e29c21500c041cb2cf9b4174b",
        "terms_k0.json": "859845a27fcaf1ac7749f618e6f9a640da5be55b3054812853f08833a1c56a0d",
        "terms_k1.json": "eb2cb742f0b4a18cfaf933e31dd17f05c3a405a0f97fc0ce78886cfca14f9f88",
        "terms_k2.json": "e86314cb629bc26aa82138437abf86e23522e8dc2d1c6f2147f1497c61c40b56",
        "terms_k3.json": "5cca0e8263c2fd900da3cd417621a753e0aaa2ec86ac2609463b5b0ba5f140bc",
    },
    ("fig5", "csv"): {
        "manifest.json": "ce043e3b99cccffba4620b531e9d3ca9daf10c26ff8bfd04334ad23eaac586c2",
        "pfunction_k0.csv": "8c397a7a9b1a296e25997afc090ffee276524b5cc070ff86134a87827ae60f81",
        "pfunction_k1.csv": "97dbecec6860c929ee8a011fea59821ed024a916ee9903c95c1439fcfcd73961",
        "pfunction_k2.csv": "654b556a6d006499fa32edfb9cd2634c84bc26012bb276c2d24ceaf01b6553b3",
        "pfunction_k3.csv": "e07d3d1747e667f51eb2ca7638a78671c32b3505cff1711485b41f07c9ebe4b7",
        "summary.json": "7b0601ec51ec6140908ff5d8eb27ca4b6ae29557454999ee39e4dd99c4f6903c",
        "terms_k0.json": "51973ef99b4e9bc3de34cfaec94f456cff9b9a192d3f723846cf9d2632b139f0",
        "terms_k1.json": "0cb8beaf4d786f4b6fab500a340fec95518d7f03427eee70092647c820d39200",
        "terms_k2.json": "e0de92b4655b3c711eb4c1a5a2ec7befe2a4fac1db60a49100f68fc7d8b6a0e7",
        "terms_k3.json": "1b1360fdd0e0046072b585b4c72f4a2e9bd02e8163cdfd8dbcce1c561eee1098",
    },
    ("fig5", "json"): {
        "manifest.json": "bca32dc170ebbeaffc2b4da8c1750df36534eb36959201b5ea5e9eae1bd1c3ac",
        "pfunction_k0.json": "197ff2bf0a77e0d15d5effccfcdd0a424b9124c678223928c0ea594cb64e793f",
        "pfunction_k1.json": "3c1805bc28baeb9d926097141fb4e8ce3e5e89bdaf28839056ace58c5f4890ed",
        "pfunction_k2.json": "0621a65a77056ad24ee22aadae1395f2921a3c0b423156d5885f1ff16bafc340",
        "pfunction_k3.json": "02f09a7006f3f8b507e29159167973a3408f934edd3609ee7a3b49fccf061dde",
        "summary.json": "7b0601ec51ec6140908ff5d8eb27ca4b6ae29557454999ee39e4dd99c4f6903c",
        "terms_k0.json": "51973ef99b4e9bc3de34cfaec94f456cff9b9a192d3f723846cf9d2632b139f0",
        "terms_k1.json": "0cb8beaf4d786f4b6fab500a340fec95518d7f03427eee70092647c820d39200",
        "terms_k2.json": "e0de92b4655b3c711eb4c1a5a2ec7befe2a4fac1db60a49100f68fc7d8b6a0e7",
        "terms_k3.json": "1b1360fdd0e0046072b585b4c72f4a2e9bd02e8163cdfd8dbcce1c561eee1098",
    },
    ("fig6", "csv"): {
        "manifest.json": "5416d5abb8e07f790e486c55ffd6eef8ea84d3f70973873a53bde92043031f1f",
        "pfunction_k1_0.csv": "78cf1cc5ba008ea962d5483bff7bcab12055f090c5f570021e2d0442314ab71f",
        "pfunction_k1_1.csv": "e8c1327b6ecb46f0a10f4019301887b828911c009f721485f59da71b7a535a05",
        "pfunction_k1_2.csv": "59c6003ddb773139dabdd4cfea89d31a40ca2a5ff438c916a83468ef4fd3b8f8",
        "pfunction_k1_3.csv": "855b2f8240ba1427653d40b1e23da8bd1ea34765af47ab974c0d2b057124c3d0",
        "pfunction_k2_0.csv": "e9e2d6a9d05020d21aaf5ae6d2a5026306a5ec2ea7c0fe0c5f6a594cb7d3ddf9",
        "pfunction_k2_1.csv": "cd8f3c105af973884b6c0343f86854e7c9a7f306f39cebe3c11d0111c2dd9378",
        "pfunction_k2_2.csv": "d8f91153c7e01e791a49f2aec71bd7f0af6fe2981b11c693ef2de735f3210a41",
        "pfunction_k2_3.csv": "81b72f083fae410288ec0739555c92cab1703f0575823c1e753ef42a2bdc7c98",
        "pfunction_k3_0.csv": "8d3a62d6c9ebbacba288ccd2e8e6ab541f999fa8e45db2ff19b364ef58c46ef6",
        "pfunction_k3_1.csv": "7faac5decfa3e73ec177f8fb3b99b9151592ae3e13bdae20d0beca7a69f0f2fe",
        "pfunction_k3_2.csv": "a259d1a0f69b482b8676ad26d840ddb63adbba048e62f29801b7e3ea8b0093fd",
        "pfunction_k3_3.csv": "82b33926c2a9a64619e0e93ea722a335c5224a788cd00908239f82ad2868cd12",
        "pfunction_k4_0.csv": "817fda199f4f6f12cea609728e824f092a7d66cbfa26df1df5f75dbdbfda2040",
        "pfunction_k4_1.csv": "b098d32f094eb241bcfc45bceea0de73bb3147c0cb01a97aad73844da86c1441",
        "pfunction_k4_2.csv": "6b3d8a722652d0e4ffc4a1cebebf1b1d775043ad2ecf749bc646c84520df1a7c",
        "pfunction_k4_3.csv": "1a7fcf9d5426e2354f7b4f3a1ba580af39debb273790839613203cd6b8996848",
        "probability_table.csv": "b0d04ebb380d7005de2158a9a808d65402f74a5fe571bf33c6fb2f714ede8e48",
        "terms_k1_0.json": "777762b31e2925925c3e992f0e0407fdf7e4f9469a514cd61edb026f4f4ca354",
        "terms_k1_1.json": "d5ca9eb921acbc6d5f258f7b30b78d3b4962e9d5abfd594fe128b5d3550dc7f9",
        "terms_k1_2.json": "807f95a4019eeae67b9883e6e832cc16758b0c136051ea91cf7b061a040ad29d",
        "terms_k1_3.json": "4396a77e32575184d25eb11207a023b88965db5c8bce847ff918495b1bb640a0",
        "terms_k2_0.json": "ad70ac05b4db9ec2c8e6e62ab3dc825fa20903e670627d275f68a87a2943e87f",
        "terms_k2_1.json": "25a50bc1f2202a48418bc214bc0dce8015c7c001529260c87abf3dd3a7089766",
        "terms_k2_2.json": "0bf95feea071d0a39d9ce24c4626838adde1a24cf7c212977872d84a48bad85e",
        "terms_k2_3.json": "b686234d6ef0db922b2b5d567466dfeff711d069ee4cf6a20d2eef3973f83802",
        "terms_k3_0.json": "37d9f44949edf24ab1a4a78fc9b4d41808109254aecfd113c652344e94aa28b8",
        "terms_k3_1.json": "420ed7f3159435307622b1a71fccacef1bad01deef1dfea6f973d545361cf6bc",
        "terms_k3_2.json": "d5af302b712fe5bcfb546ff7717a2c4622fa5d73edfc6ac1d2d5cd7a55890e99",
        "terms_k3_3.json": "161befb3a4499b0b5411f0b02a902eebd6633d4daa0b4093b2a028e62f90b665",
        "terms_k4_0.json": "b93b0d1d5e74974cd98d90c002e5f74436bea43d78157aa40c48cb08421aaa8c",
        "terms_k4_1.json": "af4fdeb9c691f8eebd0adf125101f00c5a8863eb3c0271f0a981f966065f255c",
        "terms_k4_2.json": "f4aa0020686613c140cf24d4756d10fa809bca985302bcb48e6818941067e1da",
        "terms_k4_3.json": "f5b6694271d6098fac9678a7b6f3a94095f46c1df8ea8ef2c318c3703c3847c9",
    },
    ("fig6", "json"): {
        "manifest.json": "a63120c0de3c59cea590dc7a615a6bf735cfe6ac1cdac17f7e42c1243d66ced5",
        "pfunction_k1_0.json": "28f9235d1ca702000c7296e7fde73356c780cca2e85520cc11a1643bee14be9a",
        "pfunction_k1_1.json": "36695c4e23536a903975cc3aacbcf04af2d2a9805c21c081ccaf2d702c3fd529",
        "pfunction_k1_2.json": "531dec9693a6f62d4c7034cd142048834f1c4a7546941dd8392a88d90b64b81c",
        "pfunction_k1_3.json": "28591e8303811198964e37e8d924503b21c4a56619566aff70080175559cbe73",
        "pfunction_k2_0.json": "093dc71a67a49d70813434a8c0f061fe1454fe9d18a80c60ca35ae854b9d3edf",
        "pfunction_k2_1.json": "8219779aee311cf939258d8af4cfb54cfeb30ac414c7f9e6392695157e6fbd92",
        "pfunction_k2_2.json": "1c9d100e09ef6a66c2041e9eefe951a690c77371a3bfc75074f1f3ea356caa74",
        "pfunction_k2_3.json": "7c5cca391bf403414c56fe808be34c102870cb2c33bb4d2ba65c5aca161caec7",
        "pfunction_k3_0.json": "b5a24ddc8d6a9d81b33998fcc2c6cfd8152fe5b878745e91c3feaab857fd3a83",
        "pfunction_k3_1.json": "7726ca2ebf97513273efb0948b3d38870c039745c840a19dfd6406595c474e96",
        "pfunction_k3_2.json": "0f59010929ac7d3cc8957812c986c7ff6fc0a21e7b6b29ffe91e69bcf842baec",
        "pfunction_k3_3.json": "ecf5c311a7a0ff436cf59a116aa5cd2c1528fadd8f5fa9e7819c39c5d2f39374",
        "pfunction_k4_0.json": "ff388645252ec5efc738044eb118fa79db5a0c073879556fdd45dcc70bd06f0d",
        "pfunction_k4_1.json": "54b0b2fc4f693be51189d57d5bc2be87fb442fc655866f09826ae3c86c6c9b5a",
        "pfunction_k4_2.json": "00b130391ac2158a6b4f3e58ec03672170f8580ba32595fe6bd5e582f41bcb37",
        "pfunction_k4_3.json": "24a3cfd5e31dcce83d23348c950bf3beb50354dc715c2ce7f6829fe28b60f6b9",
        "probability_table.json": "7aa3c2c5e1a822ab0c9dc43539d0f9b26d04ec3cf5ae447dcccc11e889e19c66",
        "terms_k1_0.json": "777762b31e2925925c3e992f0e0407fdf7e4f9469a514cd61edb026f4f4ca354",
        "terms_k1_1.json": "d5ca9eb921acbc6d5f258f7b30b78d3b4962e9d5abfd594fe128b5d3550dc7f9",
        "terms_k1_2.json": "807f95a4019eeae67b9883e6e832cc16758b0c136051ea91cf7b061a040ad29d",
        "terms_k1_3.json": "4396a77e32575184d25eb11207a023b88965db5c8bce847ff918495b1bb640a0",
        "terms_k2_0.json": "ad70ac05b4db9ec2c8e6e62ab3dc825fa20903e670627d275f68a87a2943e87f",
        "terms_k2_1.json": "25a50bc1f2202a48418bc214bc0dce8015c7c001529260c87abf3dd3a7089766",
        "terms_k2_2.json": "0bf95feea071d0a39d9ce24c4626838adde1a24cf7c212977872d84a48bad85e",
        "terms_k2_3.json": "b686234d6ef0db922b2b5d567466dfeff711d069ee4cf6a20d2eef3973f83802",
        "terms_k3_0.json": "37d9f44949edf24ab1a4a78fc9b4d41808109254aecfd113c652344e94aa28b8",
        "terms_k3_1.json": "420ed7f3159435307622b1a71fccacef1bad01deef1dfea6f973d545361cf6bc",
        "terms_k3_2.json": "d5af302b712fe5bcfb546ff7717a2c4622fa5d73edfc6ac1d2d5cd7a55890e99",
        "terms_k3_3.json": "161befb3a4499b0b5411f0b02a902eebd6633d4daa0b4093b2a028e62f90b665",
        "terms_k4_0.json": "b93b0d1d5e74974cd98d90c002e5f74436bea43d78157aa40c48cb08421aaa8c",
        "terms_k4_1.json": "af4fdeb9c691f8eebd0adf125101f00c5a8863eb3c0271f0a981f966065f255c",
        "terms_k4_2.json": "f4aa0020686613c140cf24d4756d10fa809bca985302bcb48e6818941067e1da",
        "terms_k4_3.json": "f5b6694271d6098fac9678a7b6f3a94095f46c1df8ea8ef2c318c3703c3847c9",
    },
    ("table1", "csv"): {
        "manifest.json": "29568e5914d6b3f2ced1168ec698d052330e975ed6e49b9e60854d4a923cd3f0",
        "probability_table.csv": "b0d04ebb380d7005de2158a9a808d65402f74a5fe571bf33c6fb2f714ede8e48",
    },
    ("table1", "json"): {
        "manifest.json": "f2713747911a8817355e164ebe05904b36b258a8432e496cabd80e64b37e9616",
        "probability_table.json": "7aa3c2c5e1a822ab0c9dc43539d0f9b26d04ec3cf5ae447dcccc11e889e19c66",
    },
}


@pytest.mark.parametrize("config,fmt", sorted(GOLDEN))
def test_shipped_config_output_is_byte_identical(tmp_path, config, fmt):
    argv = [PROTOCOLS[config], "--config", str(CONFIGS / f"{config}.json"),
            "--out", str(tmp_path), "--format", fmt, "--manifest"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    hashes = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert hashes == GOLDEN[config, fmt]
