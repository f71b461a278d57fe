"""The bytes of `table`, `eval` and `verify`, pinned by SHA-256.

For every FUNCTIONS entry on every route, on the generic lattice and at
tau = 8i: a small `table` grid in CSV and in JSON that takes in the lattice
point 0, a lattice point 2*omega3, omega1 and (at 8i exactly, on the generic
lattice within rounding) omega3, and `eval` at a regular point, at 0, next
to 0 and at the half-periods, in both formats.  Each digest covers the
command line, the exit code, stdout and stderr of every command.  A change
to any evaluation path that moves one byte of output fails here.
The benchmark's four `table` commands are pinned on its full 81 x 89 grid,
which passes next to far more coset and zone edges than the small grids.
`verify --n 20 --seed 12345` is pinned on the five reference lattices and
at tau = 8i, where half the identities fail.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from weierzeta.cli import main
from weierzeta.functions import FUNCTIONS

LATTICES = {
    "generic": ["--tau", "0.3,1.1"],
    "8i": ["--tau", "0,8"],
}
GRIDS = {
    "generic": ["--re=0:1:21", "--im=0:1.1:3"],
    "8i": ["--re=0:1:21", "--im=0:8:3"],
}
EVAL_POINTS = ("0.21,0.13", "0,0", "1e-9,0", "w1", "w2", "w3")
PI_A = ["--a", "0.1,0.2"]


def _commands(lattice: str, name: str, route: str | None) -> list[list[str]]:
    extra = LATTICES[lattice] + (["--route", route] if route else [])
    extra += PI_A if FUNCTIONS[name].needs_a else []
    cmds = [["table", "--fn", name, *GRIDS[lattice], *extra, "--format", fmt] for fmt in ("csv", "json")]
    for u in EVAL_POINTS:
        cmds += [["eval", "--fn", name, "--u", u, *extra, "--format", fmt] for fmt in ("csv", "json")]
    return cmds


def digest(lattice: str, name: str, route: str | None) -> str:
    return _digest(_commands(lattice, name, route))


def _run(argv) -> tuple:
    """(exit code, stdout, stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _digest(commands) -> str:
    h = hashlib.sha256()
    for argv in commands:
        h.update(repr((argv, *_run(argv))).encode())
    return h.hexdigest()


def _cases():
    for lattice in LATTICES:
        for name in sorted(FUNCTIONS):
            for route in [r.value for r in FUNCTIONS[name].routes] or [None]:
                yield lattice, name, route


# Recorded at commit 26bb0fd; the generic sn, cn, dn, E, Z and Pi digests
# again when the Jacobi family moved behind the pole guard, and the q-series
# and cos-form digests when the q-series came to sum its own series across
# the whole cell.
DIGESTS = {
    ('generic', 'E', None): 'f07736c8b5137d9b8622dab7edb62fc08795fe8c4a6f6c64f0db6eefa96249e4',
    ('generic', 'Pi', None): '015be076c96f7bee178fb41579792ec05de2e5cb0119b88caddff529f30a37f1',
    ('generic', 'Z', None): 'b659a0db2f33239d52593686a64e7739396176faba14fb0c9e62f52b4a1bcdca',
    ('generic', 'cn', None): '00b14c4a8c22c1003a3512142b804bad9f2b1435f0f0fe9a82d90a719cf43ab6',
    ('generic', 'delta1', 'sigma'): 'ccf4c5cb64800266309522ee1cddf263e6c583aa8deb0475ac0b3386386e9f27',
    ('generic', 'delta1', 'zetadiff'): 'a9574db9d2e52f5ac371c585543d286f0ed919291bfd4f5ca7245e21b1b636ce',
    ('generic', 'delta1', 'wp'): 'f1ac356a4b96d319f030892e5c9a8a52116a7eca50600e928b024672bbd61b3f',
    ('generic', 'delta1', 'theta'): 'b5b318e2a68372f2ae7e95cdc455cb7cb8a7d78ae2c2ac7c6161884c76306ae1',
    ('generic', 'delta12', 'wp'): '0fcb704040100f9d48935ad25dd4a6dc21033414924a9549a8f597a33322fdfd',
    ('generic', 'delta12', 'zetadiff'): 'c54279927511004655e60d54e021aed7d417f97a7c875a6bd33f0dc59f4f403f',
    ('generic', 'delta12', 'sigma'): 'dff140bedb261b7aeb81082a8d73d22874ee6112078cd62e95782015fc4c325e',
    ('generic', 'delta12', 'theta'): '445f61aa98d94c7707d3447d60c147339781b8dce7f57d4346436a35b0e82495',
    ('generic', 'delta2', 'sigma'): '0bc686975cc7e91709fd8520e692c5266b8cbb2e07584bcca1566219650579d5',
    ('generic', 'delta2', 'zetadiff'): '9d738d2c06e15adaeadc05537577bdedd69c83cc076052bccfa0cc889039f1f0',
    ('generic', 'delta2', 'wp'): '6e9350bb2258fea73374d2de7162cfda04a5c6a3658eb5e3cfa046c884c03f4e',
    ('generic', 'delta2', 'theta'): 'cc7e6ae60000fc05d1b6ed36a0745f1c8d10bde3749c428f4bdc5c017ffdc2d6',
    ('generic', 'delta23', 'wp'): '326522b392391b00b19b58b630c3aa2fdb5061e56126b4b1438cc84d9a8024ce',
    ('generic', 'delta23', 'zetadiff'): '93214822bff7d432fa190c4d07ca7b1ce50e3aa462cc923a9926df5a35dae3b6',
    ('generic', 'delta23', 'sigma'): '227d9d866ee528d7b329b30c54cf8a00224a188d511ec47f0a7c010e10fbca1f',
    ('generic', 'delta23', 'theta'): 'e0efa051f682d89f931c608b6d81acb933a484349d599864df601522e176539d',
    ('generic', 'delta3', 'sigma'): '26b74e585eb4287eacdaab01c0395edf1b0870f945c277fd9e720affceba6189',
    ('generic', 'delta3', 'zetadiff'): 'dceaf91ef0a1f4d509cd7e543157b78fba0426af5786613add1249bc0b1aab36',
    ('generic', 'delta3', 'wp'): 'bd06fd93457c5cc303112070a0cc16aad613c43d256793a7a9356e8e0ed3699e',
    ('generic', 'delta3', 'theta'): '26888d1f3beccb00e245e8c3b0658be8d72c5015f997074556afd636afd769d8',
    ('generic', 'delta31', 'wp'): '9693c464e4283d2bbfbcf9cc154103e9d7dfe67de476a48bd316208293510aa8',
    ('generic', 'delta31', 'zetadiff'): 'd044aa2825d368adc119daac476e801f1779f86278f1252cfddd262a5f4e6d05',
    ('generic', 'delta31', 'sigma'): '6bc8299506a3ce97afee10dba24d5be95f432a23f43f5dc246320d3b9793736d',
    ('generic', 'delta31', 'theta'): '29ce633def7cbd077dc8cfe99d784c4ddfac9e2e36a120b82b630685fec9ebaa',
    ('generic', 'dn', None): '1eb287667e5fd8ee057a2d3f5cb146ffe6602db92c6a513b1801c868cb7bcd6b',
    ('generic', 'sigma', None): '3825d3ad3436de143b6fa77f253577e8a2c867f55459f7d194ba73c0f3b2c59f',
    ('generic', 'sigma1', None): '65388c9c0e6557ce8d4a49da6e0a61500947f400ae8accc308bb86c9c2dce3ba',
    ('generic', 'sigma2', None): '001ecc29de0ce850fd26f01f18c05894973e308fbebe18d8a5f5dc7ddc9cffb1',
    ('generic', 'sigma3', None): '70cb9951599e0b7c988b22182269eb08ba4cee6995c496b64a6d463e4cbd26da',
    ('generic', 'sn', None): 'bcd3b1bcf4facd10ae859c76ff1c73c60216ca77e67a49e0be3cce29943cabd5',
    ('generic', 'wp', None): 'f2c94d0e2adbcf5e8c087c688eb2cf39199b65ecf5f59de0f83f2f630270a3de',
    ('generic', 'wp_prime', None): 'f48614b9206e576dcff780663e2e1a7e2d53c2d600091e7c9075dce02c613425',
    ('generic', 'zeta', None): 'a1968af16e7810b7aea53c04241229be85d900b24cc7535155b08e01c53ff648',
    ('generic', 'zeta1', 'theta'): '2a1a1a38d2c65b04de96a453c17e364896f76b0c51e8a07d304cd82c696282da',
    ('generic', 'zeta1', 'shift'): '59658d893a9f109fcba3a6892ff121da1523094d545bceff51bd4fda804e180c',
    ('generic', 'zeta1', 'qseries'): 'b1d97845df32bb779762d6a7c0bd2da3b4727f036284da91e4eda4802fe4da17',
    ('generic', 'zeta1', 'partialfrac'): '7779dd4b79a20276e79d30814ea3e94b6c09b7ff4c549b4319e9129dd93cf195',
    ('generic', 'zeta2', 'theta'): '7e880e1bcc17701b89236021e9d2eae88158a2950e50639f1685a792c020dc28',
    ('generic', 'zeta2', 'shift'): 'd0f4e8d475be9fa856dbd1bbb906522e102f94290535b6be45fd96a0798c219f',
    ('generic', 'zeta2', 'qseries'): '675fd65c45fbb541d474c5f4b39c17446bb3995849861724c803c5c086cc5fd2',
    ('generic', 'zeta2', 'partialfrac'): '233a1e6ce4dffcae506dbf6ca04cc74742da9c8d9b5c7682cf47c98b2e4ae374',
    ('generic', 'zeta3', 'theta'): '84e5a4f8653b4788ca45372df50b566908870e76ed850e57e27fa3832f5aab74',
    ('generic', 'zeta3', 'shift'): '24c926175fa19d882da8a38fe936dd849354eb82738418e10e08583464ad223a',
    ('generic', 'zeta3', 'qseries'): 'b220062c57d5021d0666396b01ff68f820547770fa49aedd81dafdd57210ea34',
    ('generic', 'zeta3', 'partialfrac'): '6019e2c7f7e4a2197d1861df73cd521afa800cd3bb26a6e88a9662d1432d79da',
    ('8i', 'E', None): '7765350a5d67db6294771f5d689b85397f4bcf2d30520c937f7ecfdf9ac47749',
    ('8i', 'Pi', None): '90a3c31e72bb4dbaf7465066d34653c9f26ce42408538aef69ee5d613d0c7a2d',
    ('8i', 'Z', None): '9736663e4c49f6c182dbe7eb7604a1e8826a359873252ec3a672b7fb6afe7439',
    ('8i', 'cn', None): '603de7adcc68deef8ec192d89f54b9486ac1d307098125fe7cb23bf7cacd3189',
    ('8i', 'delta1', 'sigma'): '4bb561f61103f6d608b00562abed9716bcc8f48b1ba09f96b9419d8200b7359b',
    ('8i', 'delta1', 'zetadiff'): '354a70a940663d60ddef838886acf0af659adbbcdabfaa851f1732c535debe6f',
    ('8i', 'delta1', 'wp'): 'e135e6ed1dd497cea526b81ecfe3230a7f4ae4cd1902e1dec6b10376723b1617',
    ('8i', 'delta1', 'theta'): 'b215566d5ca302025013b2cb3e2e60ff569309d73f888426edb65a683027fa7a',
    ('8i', 'delta12', 'wp'): '9c7c40758d11ed427ab092cf28eafe1757976ab6395362ab3292ea095d03704e',
    ('8i', 'delta12', 'zetadiff'): 'bad84f97c21ca91ee12de5617cf76c63b4478b8fa385f9c7fa65b42d3a539837',
    ('8i', 'delta12', 'sigma'): '25daaeb474b269f3025d776ceff756ca157ac927d76445bec99a378249a1f60e',
    ('8i', 'delta12', 'theta'): 'e529a0e9381b05825b7992955997296cb5e4b1d6f8b764bd2b8ade4093227e38',
    ('8i', 'delta2', 'sigma'): 'c943bd3b9a83005378e62ae542b0a565be7553aae5253ddb5541f8a956475421',
    ('8i', 'delta2', 'zetadiff'): '38816eba02d1b8c031cab2d45aa0d642dfa9c207d16d54fb2f66b10f1a34b737',
    ('8i', 'delta2', 'wp'): '0e67880ecc49482f58ebdc8ec07dae462ee5076d84d0dc8501a300bc3890c6a1',
    ('8i', 'delta2', 'theta'): '52bb4a547d6bc6c5e22b64077cdb8731c061ba7f3ad050bebe4a777a4d23ab3a',
    ('8i', 'delta23', 'wp'): '2a0a23e068c95f0f1322226f210a7a60c4f9c3810496aa30562477b25c0716df',
    ('8i', 'delta23', 'zetadiff'): '1dceb30e91dbd65854e64fa75ba2b406d631a83856db1799ef64e59bfccf8c44',
    ('8i', 'delta23', 'sigma'): '5dbd69d7634aeb16099daad122932a10651d5f3817691d9b2bcafbb3eacc5741',
    ('8i', 'delta23', 'theta'): '2c5be5881edc8130b593fd5859a93892ba91dd748125d5c4970dd0e5595c5325',
    ('8i', 'delta3', 'sigma'): '7f0b9bd3f80457dd207fd0507ebb962bae5ab718cb07aaa7560576c7db451a14',
    ('8i', 'delta3', 'zetadiff'): '5498a3e95d097b66e8893cbaa802e8f610c91c9f97b6eebf410654e6718de322',
    ('8i', 'delta3', 'wp'): 'eca9f69766fde3f31a526ea0596721764edc8e350eb8db47cc2930c7690dffa3',
    ('8i', 'delta3', 'theta'): 'bfce72d6ab5eadeb7497bca4d4f2ff585c6786341839bdb5101fa4d31a7153e4',
    ('8i', 'delta31', 'wp'): 'd8b80fa3c8dee69f3005e4ea09aa96b034a7783d089792803a466ed251e31d4f',
    ('8i', 'delta31', 'zetadiff'): '9592f9d503254ec9bbcf21bc43854654a659983358c8e8300c6c8c2033195663',
    ('8i', 'delta31', 'sigma'): '74cedb6c8b18e21b2be991083e2505a4feb81bba18ca93b47d8dc3ffe7cfeee9',
    ('8i', 'delta31', 'theta'): '67b5f6a492865441e46bf94918e1fba371a4388d48c5aa019e0ea2573315b207',
    ('8i', 'dn', None): '268122040d6e93c8be39956d852ad836e00e209a7145c2bbea31872c92620696',
    ('8i', 'sigma', None): '372d26517a84871c671445ec5adeff15c68bc73f55d259b558bea1a81f56b870',
    ('8i', 'sigma1', None): '122966abc56b2086d746e11a3c9344d689cac1a7238d99d3ff09ca09bf1c2268',
    ('8i', 'sigma2', None): 'cb21f3bce19aea9bcf027da8a58f87ad58cbd704aca924b16b4320858ee7754b',
    ('8i', 'sigma3', None): '0c85c25b8438e55dbaf40eaae8891a1279e52845318c80d2cb69487bd4e7e03b',
    ('8i', 'sn', None): '4e9700a6c89988ac1745059929ef8e481cc34fbaa10c1b767a41c4c8e9c40f45',
    ('8i', 'wp', None): '164119ddf44781430e3f0b91fb65a937632b63280ba4ca4d860de8162f8a2462',
    ('8i', 'wp_prime', None): 'b7450796f2fef22d7547771e693528dd2c0b73c25d19a53211cc82357f277e6e',
    ('8i', 'zeta', None): 'dcb550d36366519c9784a68f831e4d16552c8b04bd3b41bf58211f269f6a75fe',
    ('8i', 'zeta1', 'theta'): '6fe00f5b93ebcf30f4abaab5a54c0099401140d02fd4c2cf098dc798a7526869',
    ('8i', 'zeta1', 'shift'): 'b286df5fffd36d01f0d0388cc3a4fe0f3381daecb99efc1b082d218dbe9ae730',
    ('8i', 'zeta1', 'qseries'): '8682ee022b0ccdcbb0d9ddfcf6e352a5057a277ac9214eae698a1aed3136f608',
    ('8i', 'zeta1', 'partialfrac'): '0e41f16c77810513be6c4b8a957f6f1ab4bca4c3427ebf0783f35d2f17cd1dac',
    ('8i', 'zeta2', 'theta'): '9c9a25bc374a935e83bff07a1ab085ea30b76f74ff67fddef3f90c9ed52e6e29',
    ('8i', 'zeta2', 'shift'): '0df7dad4a17b2ead8fb5d9a4aff561a036275add266d6c031bcad67a1acd132e',
    ('8i', 'zeta2', 'qseries'): '40c2c30e48a867a1c436dcf45ba7e8a0949236bd2b4b2d8f1d1bfe8a0ea46f0a',
    ('8i', 'zeta2', 'partialfrac'): '89bc4c220f055e86db64db52488579149dd9cb026c935a457d63e2b4aae79d96',
    ('8i', 'zeta3', 'theta'): '418e34c4715a0f6b6b549f5a569c1297b5b8dd36f70d170430b2d450ef3677d6',
    ('8i', 'zeta3', 'shift'): '305ff480e6f249f55008b83cd446aae17d9fc2719a1e6ac9c4633dfc8f53ab66',
    ('8i', 'zeta3', 'qseries'): '9cdbc07e852ed10fcf08eb79308fddc57aaeabdcac9322dea0ddd562cf2906bb',
    ('8i', 'zeta3', 'partialfrac'): 'feec2465415304c9124a9678f5a5d2693c81c963e962dc3803806f100b2cf4a0',
    # Recorded when the derivatives and the q-series cos form joined the table.
    ('generic', 'delta12_prime', None): '27a19a53907bdf51c552aa2729eec0b7154fda8b9e1fc38536f2e57b82af206e',
    ('generic', 'delta1_prime', None): '2db12d79534f10e09c83fa995f5f0d16f06220d7c77ad6e491d70a8466582354',
    ('generic', 'delta23_prime', None): 'bf8ca0c382c5e2f9470576e39dd611a0cdc26c5ed6aff50bd13f5ce1efe1eb3c',
    ('generic', 'delta2_prime', None): '99e0ab2fde46e29cee6e9a504abd70241742190b640f8df717d43619698dd746',
    ('generic', 'delta31_prime', None): 'b31d7dd8bb276a989e5def615df368d92b9069b50ed7febf6dc1123ad471c24e',
    ('generic', 'delta3_prime', None): '233397b95a4f671981fbd5378130656cd113d6ac95a92662c5426150ad6582da',
    ('generic', 'zeta1_cos', None): 'ce87a0c38c4f80370d512eacd4c1d9305a60210130bf15864e4423647c93d033',
    ('generic', 'zeta2_cos', None): '46161c263b892b1141e66c82a8f8d03f0b88ad529f92b0e55e964e1992ed4dad',
    ('generic', 'zeta3_cos', None): '533299e6c7d3713d08f7bde3d1d29c5a02ff8693483c8df996e6ba1a4035024b',
    ('8i', 'delta12_prime', None): '8842a6e59c10699024eae14e037f67a2a5b141924d2e9bee0d019938b52ee4c4',
    ('8i', 'delta1_prime', None): '85bb1ebe9bed125bac0503d231bdfeb05e3910e2f35f12082d1385ac089cad79',
    ('8i', 'delta23_prime', None): 'f2611cf3dff9860fabc0f4778a8db3cc4068aac657ecacd679e7abdb021b43a9',
    ('8i', 'delta2_prime', None): '7fd849758a22ad09e4a8dbafccecdc4fa2b0274786febd1cc848ddb26d95a324',
    ('8i', 'delta31_prime', None): 'fd57bc5684389fd50a342af9881d60f7aadb0c47bf9d4f56c5daa71a2d024f7c',
    ('8i', 'delta3_prime', None): '8909d69b29bea70ee24816f7b3854f9f9f38b34c9688af5731535fe96dd235f0',
    ('8i', 'zeta1_cos', None): '3921789dd21f02a6063cc2d49a9d5481743edcc180d68051fe8fba3fa8378ed5',
    ('8i', 'zeta2_cos', None): 'bb3449b9a2187b93ed4e080f12e670e88f257e9e7fe8d0e5b70b77acf04f36af',
    ('8i', 'zeta3_cos', None): '5479bbaa8bad1e74c39b055b42e68d527177bedfd4571a70c6412ea1683b5284',
}


@pytest.mark.parametrize(
    "lattice, name, route", list(_cases()), ids=lambda v: "-" if v is None else v
)
def test_output_bytes(lattice, name, route):
    assert digest(lattice, name, route) == DIGESTS[(lattice, name, route)]


def test_every_case_has_a_digest():
    assert set(DIGESTS) == set(_cases())


# The benchmark's `table_grid` commands: one period cell of the generic
# lattice on the 0.0125 grid, from the origin bench/common.py draws for seed 1,
# so every pole coset lies on the grid.
BENCH_GRID = ["--re=-0.28750000000000003:0.7124999999999999:81", "--im=0.5375:1.6375000000000002:89"]
BENCH_ROUTES = {"wp": [], "zeta2": ["--route", "qseries"], "delta12": [], "sn": []}

# Recorded at commit be23457; zeta2 again when the q-series came to sum its
# own series across the whole cell.
BENCH_DIGESTS = {
    "wp": "305660eb07e2c886aff1b8b27da72e1fc4df629a2fcfa86a2f2c44ee7e4a8126",
    "zeta2": "aeb2d186a66252767ae6dcbd284efe8caafaff6c27e729b104b97b2a54a05a79",
    "delta12": "2681dac5b70f020ba1ce0d6bd8c1c0c46ec428260fa5a79c8750cf79172085bc",
    "sn": "3616b90f89469b6762166615ac914993de53ff51df4be5311d0b76fdf3e7f113",
}


@pytest.mark.parametrize("name", list(BENCH_ROUTES))
def test_benchmark_table_bytes(name):
    argv = ["table", "--fn", name, *BENCH_GRID, "--tau", "0.3,1.1", "--format", "csv", *BENCH_ROUTES[name]]
    assert _digest([argv]) == BENCH_DIGESTS[name]


def test_pole_guard_runs_before_an_overflowing_record():
    # The record of omega1 = 1e-160 overflows ((pi/(2*omega1))^2): a point
    # off the poles is a usage error, and the pole itself is still AtPole.
    lat = ["--omega1", "1e-160,0", "--tau", "0,1"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(["eval", "--fn", "wp", "--u", "0,0", *lat]) == 3
        assert main(["eval", "--fn", "wp", "--u", "1e-161,0", *lat]) == 2
        assert main(["table", "--fn", "wp", "--re=0:0:1", "--im=0:0:1", "--format", "csv", *lat]) == 0
    assert out.getvalue() == '{"value": null, "status": "AtPole"}\nre_u,im_u,re_value,im_value,status\n0.0,0.0,,,AtPole\n'
    assert "overflows" in err.getvalue()


VERIFY_LATTICES = {
    "square": "0,1",
    "rect": "0,2",
    "rhombic": "0.5,0.8660254037844386",
    "generic": "0.3,1.1",
    "tall": "0.1,3",
    "8i": "0,8",
}

# Recorded at commit 450d579; all but 8i again when the Jacobi family moved
# behind the pole guard (its identity rows move in the last digits), and all
# again when the q-series came to sum its own series across the whole cell.
VERIFY_DIGESTS = {
    "square": "fa85c01afd98807bac0bcc4ed515f31728234a1539e210c7247043847b954a38",
    "rect": "aae879bf3bf8b8abdcb81809a7fe49533c1adc02b0cf8986291be9c91f612bd6",
    "rhombic": "d8e122ea5c19374d9d0e1fad7f8cb7f688919e75d880de11f0679540c9cf561d",
    "generic": "1ea75467c64e88c0cf483f1ff819840e46a1ebbd8d43921f3e3f8ecdbb41dde0",
    "tall": "a634ed9cfedcb4a83fcc3c18c4c474640ace7becf359bc3fd1a1245d93cb44f3",
    "8i": "597b723333f10dcf2c73469354d5efc92526d2ff0de8bba693dd704cbb928835",
}


@pytest.mark.parametrize("lattice", list(VERIFY_LATTICES))
def test_verify_output_bytes(lattice):
    argv = ["verify", "--tau", VERIFY_LATTICES[lattice], "--n", "20", "--seed", "12345"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    got = hashlib.sha256(repr((argv, rc, out.getvalue(), err.getvalue())).encode()).hexdigest()
    assert got == VERIFY_DIGESTS[lattice]


# A non-default truncation policy.  Every digest above runs the default
# series config, so a kernel that read the default in place of the config its
# point was located with would still pass them; these pins see that.
LOOSE = ["--abs-tol", "1e-4", "--rel-tol", "1e-4"]

# The generic table cases whose bytes this policy leaves as they are: E, Z
# and Pi, the partial-fraction route, zeta2 and zeta3 on the theta route, and
# delta23 on the zetadiff route.  Every other case moves.
LOOSE_UNMOVED = {
    ("E", None), ("Pi", None), ("Z", None), ("delta23", "zetadiff"), ("zeta1", "partialfrac"),
    ("zeta2", "partialfrac"), ("zeta3", "partialfrac"), ("zeta2", "theta"), ("zeta3", "theta"),
}


def _loose_tables(name: str, route: str | None, policy: list) -> list[list[str]]:
    """The small generic `table` grid of one case, CSV and JSON, under policy."""
    return [argv + policy for argv in _commands("generic", name, route)[:2]]


# Recorded at commit ae38e7e; the q-series and cos-form digests again when the
# q-series came to sum its own series across the whole cell.
LOOSE_DIGESTS = {
    ('E', None): 'bd10c9326643a1f31d30b2afbd16873f39fafa21ba06199ca015d810aa11d319',
    ('Pi', None): 'fd74d3912a0a99c291f8de1cac8b0a94c9f9e4db53a684728d903d0ec327ba8e',
    ('Z', None): 'd0e57a3ef5093ec768bdef71fb38af1decdf076491d3676334992a7f5a973668',
    ('cn', None): '4e652422aee4759d6edcc52621c25847da5cf45da50e8b62c76de4856806e6c5',
    ('delta1', 'sigma'): '9cf23479da2ab8cc49d0d12af6e424360b1d1173701f3bc7e45065cf859b9b92',
    ('delta1', 'zetadiff'): 'fc40a80783f38aad41777f7f46d882c60606ea3345cbdc9e7f26877d06ba2031',
    ('delta1', 'wp'): '74bcc8666b6ea623a120bb308932acfb098e4081d6eb863dcfd5e88c1503bd81',
    ('delta1', 'theta'): '4b7907a6a4d9db7e86534d58830421d2d701b6b03eef8865469508216460ac5b',
    ('delta12', 'wp'): '3f9146a9541274dbc5db0a289eab5f585ebc020611c1ae72e2532b2b48d0a52a',
    ('delta12', 'zetadiff'): 'd4404880a11565fae44be6d8adb60f5163464c077f81d2269eb70ecc8ca4143c',
    ('delta12', 'sigma'): '9f115126c70d7c48c68b9ec17f79ede5f1e1fe160cc3e5326cb7bba26e508ac3',
    ('delta12', 'theta'): '3f4e89f5786f0ebebef621929f7be9021d634bd23467c00b1035e5bcd4e98c72',
    ('delta2', 'sigma'): '382290623368f6e3f4d8fcb6a5414c5b7935214bc0d50b59490c57ca5a1ef03e',
    ('delta2', 'zetadiff'): '96e1e9ffdd38bff40e61dd273c83a4173d0de237322c66d13c02e7e1c392cafc',
    ('delta2', 'wp'): 'ca42e58f28e2efa6f8189ae44ef4826e0630887cd1539c96010ec548f14741cd',
    ('delta2', 'theta'): 'e5cde6e93c0a5944ba07c6cb81b641a18e50a30618e14ed2cfef985f66d4121d',
    ('delta23', 'wp'): 'b9253d3119083e92e71129fc6b9a6e05c18a702bd39e9756f63508e95deb2536',
    ('delta23', 'zetadiff'): '34cf52a7619acdc1d20f16b556e07914ca946d32acdf1930d4fa87b955aad940',
    ('delta23', 'sigma'): '2ce4e47d6f4614780bc51a4a761bb5fe9f27a35c9fabcae9a34b6f12affe104b',
    ('delta23', 'theta'): 'c72f61216d63afff9ffba506c4fd0edcf7f7691f00e1ce975f160fc169b351f2',
    ('delta3', 'sigma'): 'e1d49cc0704b2b689f8965372e994c11c932e536c08b890128ae10cc2f243113',
    ('delta3', 'zetadiff'): '6b6f801b42839f45c9bfa16836d55b65bfbf99fd553f7251c4d7b9f07a586c7c',
    ('delta3', 'wp'): '546e2aa4b675096bb7a10997711c165fef562b096b1929867232291738bef499',
    ('delta3', 'theta'): '5a539c8332bdde0f41eddb9a1b3ea4eccb14aa234d4efd00c6e99f948f4617a2',
    ('delta31', 'wp'): '220d154449f1b10953a9366b3685f42813725d0e92a57c905d516c6ec5a6c8ba',
    ('delta31', 'zetadiff'): 'de94132c0866162acb0b44b3d53a09e3970bb42f1e0452fc18a69f94a35c37d0',
    ('delta31', 'sigma'): '877abffef5ffdd8e5c3b47c39de81046ff0f9b3dfd49194a1d17bfd15b86c40c',
    ('delta31', 'theta'): 'a6c104c472265c796d25b5dddb0880c2d025456168e2fb2fb036ffef277252ca',
    ('dn', None): '41da169274fd82ca26316b433345d7b0512a599e856f2bfe4026452e16c5fc16',
    ('sigma', None): '7b748383b78442b492d8a713b9f8e38295381cd218ea902c794b50ea92f4e518',
    ('sigma1', None): 'da56524969b02712907dc0f98941855f62d0620ce36be146cd494075ea0b90e0',
    ('sigma2', None): '86efac297828e8a65a578e1f022e5d045b3381ea0489b55ffbed29eb3700292c',
    ('sigma3', None): '054428b17c08ba02a046ea1ab60d16c2538e57f732d6b4986dcba53e8172d97d',
    ('sn', None): '3f44406cbccc1a60c60977c7c533c18076febba3e4b7ce6ccbcfdcf705fe3572',
    ('wp', None): 'a65fdf480fb29641cc11e9de934c5a9462fbadb8b4283794ea4251fe1e554198',
    ('wp_prime', None): '4f53cf6b74684968ef68db1526f707f7fc97608b8c286189efa9ac87d98673be',
    ('zeta', None): '42b839fae5d4f973425fa311edb4136f9070369a6ebb58a655e8ea950640a40d',
    ('zeta1', 'theta'): '564fd6cce3a1ebd675bac515d4213152460947812e665234606c08ed11e560e9',
    ('zeta1', 'shift'): 'b5ee559d5e3ebc183e9c1c10dfd48db283cf717e06b441da11a1057214d4beff',
    ('zeta1', 'qseries'): 'c3d9159e0839a53a273bd914c888f13f1508ede3f3b1221301f60458dcca1dec',
    ('zeta1', 'partialfrac'): 'e1e1a06ba58ceb2b1622e9bc87d82e5f16e2f757d0462e9b00ccba70a0cf084c',
    ('zeta2', 'theta'): '1a198351ce88a6d59a5468d29876510b8e808371285892b36d9c440b43d1c4f2',
    ('zeta2', 'shift'): '1375aa08bccfbd8ef53273d291c351aa7a47d4af47c020d8f3615c1800cab4f4',
    ('zeta2', 'qseries'): 'a5357c6ecaedee353f0d408b9d5a830d25ab8d9486c351b34797e776e2604012',
    ('zeta2', 'partialfrac'): 'b58dc1423b96c604ddce27fd634f0e9f3e43e0746abb02bc9aac47340696cb03',
    ('zeta3', 'theta'): 'a0c363ac19104a18fe7c242c9010c9fabf0c942b26aa5f77f3d8b51307f29ec5',
    ('zeta3', 'shift'): '4c8feca37a56ff6014b14f6c0c6731d21fe835c24e04e80b1735c1abafd1bf4c',
    ('zeta3', 'qseries'): '6af6a41b71fb979d48f5b5ccb660e67bd80e170d34ef86f8ffadd7c71c6ca271',
    ('zeta3', 'partialfrac'): 'eca300ffd66dea65c59c7b2ee780210668f6426103f82f07a93b7c05270c9760',
    # Recorded when the derivatives and the q-series cos form joined the table.
    ('delta12_prime', None): 'c6950f2faa67e1e902e58ddc8ec601463fc66a18153f50f18e8065c518f892a8',
    ('delta1_prime', None): 'c3f6cd65ffe4141830feb5a7c6f53b9c44642ddd7ebde0e4083cded436e092a6',
    ('delta23_prime', None): 'b29eea5f88aa267813e8699ee31f486249a118af5567f93d398edc6977af752a',
    ('delta2_prime', None): 'bb9c0aa49d656545ee5a0b5c06820238173ff20a2a4b0ce6ba9b8444ead24625',
    ('delta31_prime', None): '0b2046e10ed476b5599df4f211b41d245754a0cda5432795dde21416c12cf816',
    ('delta3_prime', None): 'a8de072aac07ee2adabd453fc6d611807c67500a728215412651305db6f1fe2c',
    ('zeta1_cos', None): '2c443a958554febdff5ea5a89efc51640b561da9690aac88557889db4737d5b0',
    ('zeta2_cos', None): '32a3ea293595f6df89bfaacb5791dbb5c29fcfa4d5bd18af18baa1179c69058a',
    ('zeta3_cos', None): '369873270507b9fe23f72b3cabffb4f09cb08f29e8063e402416a96657c6c254',
}


@pytest.mark.parametrize(
    "name, route", [(n, r) for lat, n, r in _cases() if lat == "generic"], ids=lambda v: "-" if v is None else v
)
def test_output_bytes_under_a_loose_policy(name, route):
    assert _digest(_loose_tables(name, route, LOOSE)) == LOOSE_DIGESTS[(name, route)]
    # The policy reaches the kernels: the bytes move off the default's
    # wherever the truncation shows.
    loose = [_run(argv) for argv in _loose_tables(name, route, LOOSE)]
    default = [_run(argv) for argv in _loose_tables(name, route, [])]
    assert (loose == default) == ((name, route) in LOOSE_UNMOVED)


def test_every_generic_case_has_a_loose_digest():
    assert set(LOOSE_DIGESTS) == {(n, r) for lat, n, r in _cases() if lat == "generic"}
    assert LOOSE_UNMOVED <= set(LOOSE_DIGESTS) and len(LOOSE_DIGESTS) - len(LOOSE_UNMOVED) == 49


# Recorded at commit ae38e7e, and again when the q-series came to sum its own
# series across the whole cell.
LOOSE_VERIFY = ["verify", "--tau", "0.3,1.1", "--n", "5", "--seed", "12345"]
LOOSE_VERIFY_DIGEST = "c5354d4de10bc9237fe21fc68219898f9fdf15ae9cf72a8805204bca59a97cac"


def test_verify_output_bytes_under_a_loose_policy():
    assert _digest([LOOSE_VERIFY + LOOSE]) == LOOSE_VERIFY_DIGEST
    assert _run(LOOSE_VERIFY + LOOSE) != _run(LOOSE_VERIFY)
