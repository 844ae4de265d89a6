"""Golden output: the sha256 of `verify` stdout, and its exit code, for every
fixture at every prime 5 <= p <= 47, also of its stderr at ext 1 and 3 where
p^ext <= 20000 (``EXT_GOLDEN``), of three `graph` exports per fixture, and of
a few runs of every other command (``COMMAND_GOLDEN``).

The digests pin the report bytes (check names and order, details, constants
and JSON layout), so a change to the arithmetic below `verify` that alters
any of them shows here.  They were made by running `rectower verify
--fixture F --p P` on the code before the Tonelli-Shanks square root, the
fiber memo and the fast F_p[x] kernel, and hashing its stdout.
"""

import hashlib

import pytest

from rectower.cli import main

GOLDEN = {
    "new-tower": {
        5: (0, "2b28a5905b02a5e44474110d517c212e3995de19dff0b128c3776fee42bef2e1"),
        7: (0, "d45eb87c7d646147d1288e320463c715ad7ac2699a17fcefc36e859beb07cd9d"),
        11: (0, "14598ce7fdf51549cf9bb20ec691643cb40d3cc9be617bdb540e951852996f65"),
        13: (0, "f293311e27b0d1918933323b422264e1d5e259512961a4d737833bfe2068d471"),
        17: (0, "cda7cdb3b436ce6ad5cfa65b29e375513f82af9fc181a179174a7e32879dd998"),
        19: (0, "e46c1255fcc6419f53a06a44648ca1bec4a12277bfae6873c2c49f5f986e84f5"),
        23: (0, "51db5edfd7a0a5a14b3a3ddf0d485dc32f93877ad19ba7b539e1a9f9e61d63dd"),
        29: (0, "1df0ac7c8505a991bb9e342ac13a9951a4f6d0d6c911d23423966eeb921b48ed"),
        31: (0, "2c80a4fe968be1646e27f99cf98121a964b0f97cb78980cc71a305ca91f2b9f3"),
        37: (0, "97565008d56c982e90b5adae0fce5ec1b1345c4f9e749b30a941a64e99a73b24"),
        41: (0, "699e6fabc129a18cb41019734e8c66bbbcc9a97c1a44ff2d10c591dcd656b4eb"),
        43: (0, "0135633a8ac5db67dab2a2ce18be8f681217e4de1d1652aa08168005a9681276"),
        47: (0, "6ef77a28cd80f95ecd932cee7f45dd9ae5e157e0eb58ea10de9e1acf163e3503"),
    },
    "gs-tower": {
        5: (0, "e156dcbf5919fa6826e62c4c3fd213cbb11eeaee78f7bbe31ef46aa7c601684a"),
        7: (0, "472b8403b6e4f84772bc36bc25a48273ab0bd6da8758699de3ba9bdf19bb0cb2"),
        11: (0, "d5e4cf25e5463c67fc7302f4c63a8b8d011c4e95bcb92a819636214d2ebf53d7"),
        13: (0, "637f2a23fa294599eecc5a3f613d934fc18aad9ba1f2aabce43aa8b7bd46c99a"),
        17: (0, "a67a5179114b4882163ee3ca1b224112fa8adfff47d09d7fbb6c877f29c53a2e"),
        19: (0, "0b4f45a31ba4f32923f6c064fc7d9149ca8aa80ca4449a6b610a610ba9aaf12f"),
        23: (0, "839c4668fcc63b34c2af27f1c0c6fca2b9cba82fe299cde93e8432ba5f7ffdc0"),
        29: (0, "17304bd9e1a1ddd68eaf68c5025cf3010b4cac2f08b77d1d9b6faaadfa784acc"),
        31: (0, "2f4ae4f4f7b5a50500ffeef58a67a27ab423595f253fd5fc0059dd4e3183b800"),
        37: (0, "76e2e9c220216ed277a25eb9b658eb021ed577dcb66fcd003a6cb0b4daa01c3c"),
        41: (0, "b324e265a85dde550c01fbbc50ca5f7217c80459b61be9990766e4d97a08a833"),
        43: (0, "89806488612158e8a6e5d35e2c16b0b4e95aed848660987bc2a485a09146d605"),
        47: (0, "2a4e1193552d4c1f557acc77218a9c3b9228229c2567748b5bc6e808bbc71769"),
    },
    "type-a-toy": {
        5: (0, "6666fc732f080e456fd4aafeaa4df9ac70eb7539a400c5bae5c2f796b8f9430c"),
        7: (0, "edf8e6d588cbdbdb61f797d52116db1bcd8abcaf9baad71e3c5a9847d21ebb14"),
        11: (0, "e4ca800cc1f34f30fd623665020919413b654f186fd84203dde33398be7072ad"),
        13: (0, "679d999542b2fa0b405bb0a2998e60c42f70301c7349063930736a9708d4be10"),
        17: (0, "ed523062f72891db0448bc16af39783856a9f847a4b2653026584f369515aa67"),
        19: (0, "431fcfc5f0e3243785adfd2287c93507c080caebd6b8cceca47176f770818cfc"),
        23: (0, "1f593ca1f7eaca771bd37295c467a255c82f9a8fd8f9dda45509cda5a99e64d6"),
        29: (0, "09fce94a7c4bacdfa5957f76cec6490e59a3d4d19c2642ac4c4270fdd0e92e35"),
        31: (0, "8bf7e413f533eec23db41b0253bfbd0102f55ba6210ab6a8fd2fe7212a37563c"),
        37: (0, "6f63b0c20d87f5e2fed8402f06f09cf0f69be4bdd8712fa6d8c09fe57966ba08"),
        41: (0, "7e4faf683e1502816f1fdccf15005f32a9c110e75e5a6b495905b2f41a5f9346"),
        43: (0, "54f3d25dd9dc022e2145a779184cdceff6c08614fe3f61c4cbeb66d1db058b59"),
        47: (0, "e2d7efe0e937764dff6dbd56c05b85b91fb799561b5f492a9799222f8914fe48"),
    },
}


@pytest.mark.parametrize("fixture, p, rc, digest", [
    (fx, p, rc, digest) for fx, rows in GOLDEN.items() for p, (rc, digest) in rows.items()
])
def test_verify_stdout_matches_golden_digest(capsys, fixture, p, rc, digest):
    code = main(["verify", "--fixture", fixture, "--p", str(p)])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (rc, digest)


# `graph` stdout: the JSON at p = 7, the DOT at p = 7, and the JSON with the
# edge list at p = 13, for every fixture; made from the code that built a
# report for every component before grouping them by class.
GRAPH_GOLDEN = {
    ("new-tower", "7", ()): "217032b4f33db228b287de6fcf3e904cc43f45f1f62b4fcfab1a6a90e21b823c",
    ("new-tower", "7", ("--dot",)): "ab82751a8ef6eb9ae5a3655ebf071cd27797f75aa5175743a7d0cee8ab52bea7",
    ("new-tower", "13", ("--edges",)): "8fd39523a457637aef5d907e43b556577e4ff98adfe723db3cdc8f536f4d8eb7",
    ("gs-tower", "7", ()): "3f4ad4e68a8ab0b4ee2a89c8fd8d8238febfc90e71b89d285efbd0d1df0b717f",
    ("gs-tower", "7", ("--dot",)): "9560f8af5a9ae3be0bd52433bd9aab9628544cbc37a337c958c53c2dc4cb724a",
    ("gs-tower", "13", ("--edges",)): "d8899d2ce9e7a989d5861685623fc161259441a3c00f77b05d468cddc15275eb",
    ("type-a-toy", "7", ()): "293d05775b2301e0c0d48a796cf5ae84b967b53ac4641e81a923dc3a3853f925",
    ("type-a-toy", "7", ("--dot",)): "8d56be356f2a13b9584e31e4769d5c8c8b088bf6237df935d7505acec5408a9c",
    ("type-a-toy", "13", ("--edges",)): "a9d96b18f1351571ee4a1a4b9e5acbc8950db70bbcda3002a3284706d418ef8c",
}


@pytest.mark.parametrize("fixture, p, flags", list(GRAPH_GOLDEN))
def test_graph_stdout_matches_golden_digest(capsys, fixture, p, flags):
    code = main(["graph", "--fixture", fixture, "--p", p, *flags])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GRAPH_GOLDEN[fixture, p, flags]


# Other commands' stdout and exit codes: `search` at every prime 5 <= p <= 23
# (its `_certify` witnesses), `feq-check` on both fixtures with a
# functional equation (its constants), and one run each of `chi`, `genus`,
# `conjugate`, `series` and `series-check`; made from the code whose
# resultants and compositions still ran on field-element copies of the F_p
# kernel.
COMMAND_GOLDEN = {
    ('search', '--p', '5'): (0, "6ff1a966b09d493b314f64a6f0d194c921e84e364fb2c4ae23988245fa9e20b4"),
    ('search', '--p', '7'): (0, "0792fc8100820fb817d9f6cf66c9e91c694c09632fa395c3a307b81d548737b5"),
    ('search', '--p', '11'): (0, "4b0e8cc709c5cb48b92dcba278ecf1f4b87d3e41b5f72119b683587da10775de"),
    ('search', '--p', '13'): (0, "96ed5f8e58448ac0cec0de6269f5ee504e5111835783cca05da5b4471bb0eee4"),
    ('search', '--p', '17'): (0, "74ab352be24eee510733e9757a2165772232f78d5dfb6685dfb220e2d6dbb2d8"),
    ('search', '--p', '19'): (0, "d60d144f7f76d50e91526afe2b1ee751846da3ffb4e865fca9a4d8b66e0286ab"),
    ('search', '--p', '23'): (0, "dfb11dca5bc36172562ff25cfd16525768c0ad00dd8b624723bb2b3e6c7d33b5"),
    ('feq-check', '--fixture', 'new-tower', '--p', '7'): (0, "129a6dadb46cfd6c03226725d13fd1c8ec7f87389b579eb57e86be3830596c4f"),
    ('feq-check', '--fixture', 'new-tower', '--p', '13'): (0, "7e72be11ebd6e1c966c87a8b06d98c0545ce6593a69f2f9dd19ba93003243884"),
    ('feq-check', '--fixture', 'new-tower', '--p', '29'): (0, "d178a3e76bab02446f4d0d3a6e7b00272eecf4c4352352c0fff1e1dcf0a3da22"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '7'): (0, "4ab3769cdeff0451e99b452c5acf6fa79d54897a599316708db71d5a699e132d"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '13'): (0, "42c4b79a5428508ad9ccbe5f37350fe74d3a9a4858d5f7c1ed1bf181009897bc"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '29'): (0, "4e26fd19934b832ad39ae4af90b12045b9125b1b85c20466f159d826e9de34d5"),
    ('chi', '--p', '13'): (0, "f01bd124d0c7e3dbc79fd2cb5b161fcc5cfaffd6ccb4da85e8e9ffa4a57e0393"),
    ('chi', '--p', '29'): (0, "438ef3f979d181044826fa904c6814286543611139c5658b71a340ff6130d732"),
    ('genus', '--p', '13', '--n-max', '20'): (0, "7cb8ba8642ba9771fae9080f546ef54305b9dddc1c076f1a1c795d799ead9d76"),
    ('conjugate', '--p', '11'): (0, "df82cee9cc087fa0654a8965298ae92428e3370b14683b52183caf4fe0853084"),
    ('series', '--n', '30', '--p', '11'): (0, "dd7a8b09e666dbe0baa210146a363eeedafd4b7b0003d77bdaa950591f33e964"),
    ('series-check', '--order', '30', '--p', '7'): (0, "729823e9dc7f61297f349843a9d05232640fe2ec60371c51f0b2ea7fc6272000"),
}


@pytest.mark.parametrize("argv", list(COMMAND_GOLDEN))
def test_command_stdout_matches_golden_digest(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == COMMAND_GOLDEN[argv]


# `verify` at ext 1 and 3, for every fixture and prime with p^ext <= 20000:
# the exit code and the sha256 of stdout and stderr joined by a NUL.  Two in
# three of these runs fail, so they pin the failure reports that the ext-2
# digests above never reach: exit 1 with failed checks (new-tower, and
# gs-tower where i is rational), exit 2 with gs-tower's missing i on
# stderr.  Made from the code whose criteria still took a field beside
# their points.
EXT_GOLDEN = {
    "new-tower": {
        (5, 1): (1, "796a7909dd6d4ccfaf11d156572d35db8fa58cedac3c40232a6110549f670a8e"),
        (7, 1): (1, "7049891a5aa1700a5ca3c805273a6aa4605ad5e630403f96b77e2f9872c43006"),
        (11, 1): (1, "44db8354f07f133e7b3407543a0c266e98340c9667bc2140ec0d149f116b58ae"),
        (13, 1): (1, "e0bdee5e92a69e5b70c852d09e25ba8b22431b1438483af34f51abec12af5d80"),
        (17, 1): (1, "477fd7a79b9afc6b92a3b70f33ba29c6038de2c41bcdb0b486f87818ae398ca8"),
        (19, 1): (1, "50cc97126700075be407b9bb988f2fb59917cd939dd449f83225c5a5fad0f48a"),
        (23, 1): (1, "da4bdb3579ba5d1ef072c1652673609ec60f9293f95c6acaae8b8e15a1d689f6"),
        (29, 1): (1, "24213d74c13c8d47db9b23fd2a0b8d90595637c0b8a6f2c03d0178fe85dadd1d"),
        (31, 1): (1, "bf61b0ffb85e69a70f99e840dd9200a6cab623043aa6cda4f4744fcee3d84a81"),
        (37, 1): (1, "f811da38af5d958e30f52fb3c955151c28e2cf3cb7069e83130df609d7b5cd0b"),
        (41, 1): (1, "e935f50f5b58d44926d166138529836d5bf0cfaaebdda66c2b3b7ff6a89818c9"),
        (43, 1): (1, "c2d70d2e1d8f274ca5ee83c7d9de62b761c09c3645792aae27c11868863d49a0"),
        (47, 1): (1, "b744b81f653e67121c5d3aad55e2e563e321beb98a2b71e90cc0be2ba5adec27"),
        (5, 3): (1, "873041c8360bc9f58d93ea359ad50a2451b18d42b77f97e1036c76b672e8fcbe"),
        (7, 3): (1, "d2f7a5097acd88abfced92737f97ffcca269b48db8d7074d6175cae382e90c94"),
        (11, 3): (1, "756e171836221bdf21d8ecd62bbaaefbb03e92d83aed7be826db513471869211"),
        (13, 3): (1, "ab6987a8022f7a4e74679ae3cfc9f757bd9417ffa2f4019066eb158d70087db1"),
        (17, 3): (1, "3d6328fd9cada09ac702d1d43b537e29f9f20066c421b4a5dd2aa59ea24df615"),
        (19, 3): (1, "a173f617cf28356c5bc00774fce3c0f0c492651fce090a9221901f37eaa7fae2"),
        (23, 3): (1, "645f4322aeb44377e5039e8f3e1260ddee9046ccc66d0520a7ffd65b4c72d00b"),
    },
    "gs-tower": {
        (5, 1): (1, "9590cc29cbf37cfc5cc25288692ec809bb3cabe69e2266205b4b378a05004054"),
        (7, 1): (2, "d51d1942790889c6d03fbf61c7d95e2fdeb18d6ad104c64a6abfb93374911e65"),
        (11, 1): (2, "a530c15f2536f53d9e13137686ecbcf1524af14e105fdc20b8653f535dbc2319"),
        (13, 1): (1, "3f76ec36b216427445c2f3fb5b34d11970c4c4350aeaf74791c70782bafddf4e"),
        (17, 1): (1, "c14c0ed08a83a374f2471348c266561f24b4a403b8f961e1e8d14b2083ea1fa2"),
        (19, 1): (2, "1b45cbca1bf76394bb39420aa4d6b265357a1fa634557d349bc27ab0d145392c"),
        (23, 1): (2, "37e2d7254d64cfccaa1a321294abae5cd81544bad583040599b0b0f9e07b38bb"),
        (29, 1): (1, "401b6b19700726b15ed6722782783a8a82018f08e0b8a56fdc0e6922c7d93e2c"),
        (31, 1): (2, "b6610973fc671d9a95ebf10e86dfc0abfa9b4169448e46843eb7c042153041db"),
        (37, 1): (1, "6fe4e740e6eeb1d9f3b9f19e38c4c74ba8a6c1f83c8e409fe30746ff393aa227"),
        (41, 1): (1, "2c1a28dc013268f8a3e3ef05921a416ab074a0b695cd549334f00349954219b5"),
        (43, 1): (2, "33e2e23e5c1ad7d90d42bf9e879c2bd82b575161b32afa906e9cb7e1a580511f"),
        (47, 1): (2, "99b909f2adbe95eed4f98f9c5104fbb8d266eaa3577b4d8f4049d610d9dc55b8"),
        (5, 3): (1, "336a55447f981947379bff4b59d753adfc8cefd89bba388e31b705782db09232"),
        (7, 3): (2, "26fde4c687be300afccc01d68139c28f98491455799d188afe049dcce8151507"),
        (11, 3): (2, "aeda2c2aa3b7aa9d669d82c515a39a20bbc583f3c79fc4d81c30163ff17f7e84"),
        (13, 3): (1, "b24d9f0d98a1aadddb85824ce55c0e2e3150500a3c64c763389a9b254ca26366"),
        (17, 3): (1, "ea17e53bae8dac00ad5ef95cd39f5bc6f2dbdd6bc9e6d18a409f4a896a267ca4"),
        (19, 3): (2, "80d61ce5aa0bfc26d4be5fcb77f436f74cd8916e33608debeb027d4d0308bfd9"),
        (23, 3): (2, "01501f76319281e90a2f8397d75ad84eb6338df52cc7f43726b347ca3bad0ec8"),
    },
    "type-a-toy": {
        (5, 1): (0, "9cbdcd26a7a09ae7a48a96eb87417bddccc0a22acffd1c10c2a54b83c630af76"),
        (7, 1): (0, "10d66fe83b117ac187e106c9bdde2a6f604ba4ac693e557e1f12ba6b453d1cfa"),
        (11, 1): (0, "77ab4a5e7160c255813250e59987f3a3b49f980b4e6d482a6244e2a69ed6e170"),
        (13, 1): (0, "a33f0e5814822d415ef963d0387184b6b98f4742848fa93540d667ab4fd1b072"),
        (17, 1): (0, "200dd29d3cc60b281ece874bf5c9090309c7efb3bb760224c0b2f4d01315ee4c"),
        (19, 1): (0, "2862b301ace7e7297ba56a7ead76c1bdcd71495a3a69b35430b1f15bcfb3eed3"),
        (23, 1): (0, "7a4fb667ce32fab994003ae59c1ee5b10bf738d8245542e516ddb0273bdc4d68"),
        (29, 1): (0, "cf8482208487be297604e1d4ffda70b0b7e6cf62d56948896bc9cab972f0a038"),
        (31, 1): (0, "5bccb9e94fd19bc71de132027a15504bd23cfb2a94b57043b12a4030f3787a8e"),
        (37, 1): (0, "c86d340bb5ca749a4f715eb590101e50e96cf9955caedb4ffe1ebe06e8aab250"),
        (41, 1): (0, "3ddd8971a71425d977ac60b8726e965d3a71f739694edd3b4b86b1a738ea9789"),
        (43, 1): (0, "1e13be482b3e330026099d504234bb344cd043782622d52e74cb293beb8285ca"),
        (47, 1): (0, "777501e78fc00ee2584e2f769c07713cfa50a704b3d100f08d45e13e3cffd967"),
        (5, 3): (0, "ab004302043c296ef4e5f4322bf1ef949be37a64f359ac646a1cfe10aae008db"),
        (7, 3): (0, "2869f8045990c6585835676982372c9f122dc803d298ecf23a9e896e42deeac0"),
        (11, 3): (0, "f9a468fd123466ebd8252b9c3b24141740f56f3997c4fb4de3bce7697145fb3b"),
        (13, 3): (0, "51b9ca609e8aabd0829c9e42a5e128eb3d9770c5d69f00a1bcbaf56cae8de304"),
        (17, 3): (0, "a3aa7a4b8ce17da12254fcd8becc20b3a30262498b9dea3c4dbec7a52db9776a"),
        (19, 3): (0, "76b1fd9c8cba0bcc81fe4b0fc2f58fac73da75091f543f13eeb7ae736d7cebfe"),
        (23, 3): (0, "a0b384df4d603561fbf9416197e825304e772d4b4681277bc8325988eba2952b"),
    },
}


@pytest.mark.parametrize("fixture, p, ext, rc, digest", [
    (fx, p, ext, rc, digest)
    for fx, rows in EXT_GOLDEN.items() for (p, ext), (rc, digest) in rows.items()
])
def test_verify_at_ext_1_and_3_matches_golden_digest(capsys, fixture, p, ext, rc, digest):
    code = main(["verify", "--fixture", fixture, "--p", str(p), "--ext", str(ext)])
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()) == (rc, digest)


# `chi` on every fixture, `feq-check` on both fixtures with a functional
# equation and `genus --n-max 8`, at every prime 5 <= p <= 47 and ext 1-3
# with p^ext <= 20000: the exit code and the sha256 of stdout and stderr
# joined by a NUL.  More than half of them are failure reports (exit 1): no
# regular component, or a functional equation that does not hold.  Made from
# the code whose fiber functions still took a field beside their target.
COMMAND_EXT_GOLDEN = {
    ('chi', '--fixture', 'gs-tower', '--p', '5', '--ext', '1'): (1, "1587b478ef2073e521d393a3e2ee967a4155d67ba588b68ba04137cbe4c2b966"),
    ('chi', '--fixture', 'gs-tower', '--p', '7', '--ext', '1'): (1, "dc8b7e009e83ab8b4a61862de4c659daef289befcfd04d6fb2a326771e3e4926"),
    ('chi', '--fixture', 'gs-tower', '--p', '11', '--ext', '1'): (1, "af6dedc48e621f3bca92ec91a4b85ab0080210dfc716c40c8e047279c0706b7d"),
    ('chi', '--fixture', 'gs-tower', '--p', '13', '--ext', '1'): (1, "e88db0117608272b308c821c7c2b6d1dae653188be4e7722d5de173bf3df6ab4"),
    ('chi', '--fixture', 'gs-tower', '--p', '17', '--ext', '1'): (1, "b054b50fc834400349e34bfc21e52851267ba8144f47185bd016cbaa7e824503"),
    ('chi', '--fixture', 'gs-tower', '--p', '19', '--ext', '1'): (1, "d5af571ff41ab972e2197b5ee11d40946fe953e62146444a34be70a6fd8d17de"),
    ('chi', '--fixture', 'gs-tower', '--p', '23', '--ext', '1'): (1, "a32876c6a3df98fb4527cd0359aa7e21be24c83b23f4f8f62b8134293cc4c001"),
    ('chi', '--fixture', 'gs-tower', '--p', '29', '--ext', '1'): (1, "dfdbf8d6b25af5fa010d197275990a0838823fd482c2cc3981d21e91ba5acac3"),
    ('chi', '--fixture', 'gs-tower', '--p', '31', '--ext', '1'): (1, "d04d8a6fae1cdbdfbc9da647513a97c50e979a4c86c87182e8f81372d9ba09fb"),
    ('chi', '--fixture', 'gs-tower', '--p', '37', '--ext', '1'): (1, "c4df4144885451c8d9160957f89bdf0e2a30a6f11c85eb9dabc7c3e4d5f026ed"),
    ('chi', '--fixture', 'gs-tower', '--p', '41', '--ext', '1'): (1, "b6661037f49cbefd9debf6c408afbd19d4f2565d1df21b6e0d95ee4a6976c4ef"),
    ('chi', '--fixture', 'gs-tower', '--p', '43', '--ext', '1'): (1, "52865e5ce47d759455ecd32bc60de79dfe288720b5d92b084005a1e8b55efe30"),
    ('chi', '--fixture', 'gs-tower', '--p', '47', '--ext', '1'): (1, "c065c30f866599e5f91561f0c537fe487496522e2235ef4bfedf2444030f662f"),
    ('chi', '--fixture', 'gs-tower', '--p', '5', '--ext', '2'): (0, "d580250283fce7d06bc30d03a0512f5444b7ef183cad3148c8a36011d22a226e"),
    ('chi', '--fixture', 'gs-tower', '--p', '7', '--ext', '2'): (0, "f4d085aa477242e4a128c87158cfbcc59b915f09501b43d43b96b69449d7a827"),
    ('chi', '--fixture', 'gs-tower', '--p', '11', '--ext', '2'): (0, "e56617c4345e4cb90370f10dd078e5aa61a957ee63fa39855dab9280ec43103d"),
    ('chi', '--fixture', 'gs-tower', '--p', '13', '--ext', '2'): (0, "d0c5bcca6ea5ef479e69a2571eb17fe0cd6f2d4fce88027b60a3748e1a7d69f2"),
    ('chi', '--fixture', 'gs-tower', '--p', '17', '--ext', '2'): (0, "f6f230f98a3f5db26e89b05a6d2502d479fbecaa31f305a420ae80b0f0aaa382"),
    ('chi', '--fixture', 'gs-tower', '--p', '19', '--ext', '2'): (0, "f6eb005391cc4232704ff6c5bf1a650441212e8e6162a338be0270b035ca7d79"),
    ('chi', '--fixture', 'gs-tower', '--p', '23', '--ext', '2'): (0, "61de7a879682ac096e6f3d36aa1bff5e1d3da881be519fd658ce54e534e1f62d"),
    ('chi', '--fixture', 'gs-tower', '--p', '29', '--ext', '2'): (0, "afc43083a354d3969c17582907bf192d36e8917ea8097bd0000b59c6963806a3"),
    ('chi', '--fixture', 'gs-tower', '--p', '31', '--ext', '2'): (0, "19c4c7f423c52329a9441b0d5970c000f39966ae1f08794859a09025adeefc8f"),
    ('chi', '--fixture', 'gs-tower', '--p', '37', '--ext', '2'): (0, "9558d16c59876f6c71591925d0526d00e4b07374d3c02ed91a0b8c89368a5e5f"),
    ('chi', '--fixture', 'gs-tower', '--p', '41', '--ext', '2'): (0, "92aac87aa82f6cdefa9c4c66bbe1fbd782c8db288eec48c4d9cc1eb6efc730ee"),
    ('chi', '--fixture', 'gs-tower', '--p', '43', '--ext', '2'): (0, "b1954c4fb124e7594c171f33c26ff2ed99d5047d5eab33848a3e5696e80bbe65"),
    ('chi', '--fixture', 'gs-tower', '--p', '47', '--ext', '2'): (0, "1e60e1a8b8a7cdae76d6b66eef417969809aa338ac0f3ed9d4959b9b9e8fcb82"),
    ('chi', '--fixture', 'gs-tower', '--p', '5', '--ext', '3'): (1, "51ca1dccfdba9aae6d7f54c39040445b9b2b52a8d100406e2e2c20da47e1950e"),
    ('chi', '--fixture', 'gs-tower', '--p', '7', '--ext', '3'): (1, "bdc88bc1b195fd382c98d671358ee5862a43e4f7f5c5f81f003cd5514bd2cea7"),
    ('chi', '--fixture', 'gs-tower', '--p', '11', '--ext', '3'): (1, "7d4368eb19a3b263941a1ee38f318a4e97ed55b9e9fd2694f125e976a5145d1c"),
    ('chi', '--fixture', 'gs-tower', '--p', '13', '--ext', '3'): (1, "5f77914f39184163ef6e158864dea096fbd0d1011e9441e7fb8552a5e463571a"),
    ('chi', '--fixture', 'gs-tower', '--p', '17', '--ext', '3'): (1, "20dbd2521aad5eb24ad4689c78de5a0df383dd0fb9849f07137f197d8c02bca0"),
    ('chi', '--fixture', 'gs-tower', '--p', '19', '--ext', '3'): (1, "70b7a3834b66cb71302fea98cf4dbf440bed3b4e9c291bc141fa5855c9583271"),
    ('chi', '--fixture', 'gs-tower', '--p', '23', '--ext', '3'): (1, "7d2fdd789be2c1b9bffbd2caa53056bef5a09dc0037fe7a7a4c87b2cbca15eb4"),
    ('chi', '--fixture', 'new-tower', '--p', '5', '--ext', '1'): (1, "fe44fd4293b40d987e0f70bf8f515430e01c80998657be253b112861485073a5"),
    ('chi', '--fixture', 'new-tower', '--p', '7', '--ext', '1'): (1, "ff266c3b8edb604b10ffd9f4312cc974e2ae269edf530116600f0f575b45f1a0"),
    ('chi', '--fixture', 'new-tower', '--p', '11', '--ext', '1'): (1, "be30fc530bd4980d2cfa5a49a3ecfaff4a64e581f92a0fd0de828d68c3cf6304"),
    ('chi', '--fixture', 'new-tower', '--p', '13', '--ext', '1'): (1, "f504c344ca94ff31bf44875f84c81b990fb1bcdd087a29788d2728c5e06cdea0"),
    ('chi', '--fixture', 'new-tower', '--p', '17', '--ext', '1'): (1, "f12e5f94db63f1623582c558e262c818eff847977d7a6021d55d842c42c28b3b"),
    ('chi', '--fixture', 'new-tower', '--p', '19', '--ext', '1'): (1, "6e8ae1cea07bc7ab7c9abedb6e95c76bd162b18059fa41718178cd30dca779e4"),
    ('chi', '--fixture', 'new-tower', '--p', '23', '--ext', '1'): (1, "19f92f50b7d4af3912e358ca86dabc0e67aefd717b6824c3000b5bc1ae79efee"),
    ('chi', '--fixture', 'new-tower', '--p', '29', '--ext', '1'): (1, "9a7a65d809f4daf6ef80fbc028c006490f3a9c28e6a5f2b51e705cfbc2e5f60b"),
    ('chi', '--fixture', 'new-tower', '--p', '31', '--ext', '1'): (1, "c7c73a97388d20ca356c8398f9944c390fb416b403779e4b1d62a94ee0359665"),
    ('chi', '--fixture', 'new-tower', '--p', '37', '--ext', '1'): (1, "ef9b0a1dc28bc1d75974ea5b6f8df816093be3e57ec7444f56b5b9e0a73e6205"),
    ('chi', '--fixture', 'new-tower', '--p', '41', '--ext', '1'): (1, "7ae9e3f3061025ddfac33c4919c67694c5f714cd7a3e58e5bebdcdc56882d2c0"),
    ('chi', '--fixture', 'new-tower', '--p', '43', '--ext', '1'): (1, "97f4abff3d76660659e4ada29325c47f0d3541b59dedf02ab9b0104fb2476b30"),
    ('chi', '--fixture', 'new-tower', '--p', '47', '--ext', '1'): (1, "a3475ecdfe8492562b5653f20e43d5ff252683eaf258571f8cd972a5d7b46e63"),
    ('chi', '--fixture', 'new-tower', '--p', '5', '--ext', '2'): (0, "4fc5d0be738b47c20d58a1cbcd2ecfc82cdd2d5f9b817ca0e6a63d00139dedde"),
    ('chi', '--fixture', 'new-tower', '--p', '7', '--ext', '2'): (0, "0c11dedd16253d13b5bae1ba63713e0c013da97affa05763c12b2b886cacb783"),
    ('chi', '--fixture', 'new-tower', '--p', '11', '--ext', '2'): (0, "8f43e75af06c9101ffe57e73e31f5b8995af3956f8713d1410c0f8f1aad45e3d"),
    ('chi', '--fixture', 'new-tower', '--p', '13', '--ext', '2'): (0, "0e8cdeb2867d2b664356116669e8d56c8400003a7bd02d5303b45c331fa298a5"),
    ('chi', '--fixture', 'new-tower', '--p', '17', '--ext', '2'): (0, "1e33d5e9e1a44f68235e2caceeb7a911065ad0b4cab97f968dac51ad3ea6fcf0"),
    ('chi', '--fixture', 'new-tower', '--p', '19', '--ext', '2'): (0, "7d7fc4f2b4b4bc01b034a7affcc29b9080e27c3a71e7f35bc82a978a7b0cb533"),
    ('chi', '--fixture', 'new-tower', '--p', '23', '--ext', '2'): (0, "ccc1ab6b5048f1e0ec06fd07ad2bdfb28af5f91ce7ca954e5d3e9698009b8ebe"),
    ('chi', '--fixture', 'new-tower', '--p', '29', '--ext', '2'): (0, "0b9655336c42c425f5703dfe51a6d798b74f7d4fa7986089f6142db93a09c37b"),
    ('chi', '--fixture', 'new-tower', '--p', '31', '--ext', '2'): (0, "af431a5dad10b59dfaf11b43a88987c87b854ad7043be36bcdbd50dd93777973"),
    ('chi', '--fixture', 'new-tower', '--p', '37', '--ext', '2'): (0, "902f64cb3da6b5eb63c3ed6f75ef1f5fe09bd934904575d6175409534d7c3dcb"),
    ('chi', '--fixture', 'new-tower', '--p', '41', '--ext', '2'): (0, "a6bb2a8fa8d0468227513a4d9e6388f871c49525bea1ca00eff118f9a88f9e6e"),
    ('chi', '--fixture', 'new-tower', '--p', '43', '--ext', '2'): (0, "221d2d39f7b7da208e38d85faafed103511db8981f6ccebfdc2e3876a0e4c5b2"),
    ('chi', '--fixture', 'new-tower', '--p', '47', '--ext', '2'): (0, "4ea134b2c9cb79314b2306158c4ee0e7b58ef14a1ad8b6bd5de0616da259801b"),
    ('chi', '--fixture', 'new-tower', '--p', '5', '--ext', '3'): (1, "8e26420d11fdff263b0c1181da25a7dba77c63f799abd166ece89693e132f7fe"),
    ('chi', '--fixture', 'new-tower', '--p', '7', '--ext', '3'): (1, "c7361ff7950d32d9a002bc29a8a9b420bd552b005d48f2a925bb0c7ecf297ae0"),
    ('chi', '--fixture', 'new-tower', '--p', '11', '--ext', '3'): (1, "55d396983ff48204674d75a9477bbcd53229b03b00cca29d165a354e3c932ada"),
    ('chi', '--fixture', 'new-tower', '--p', '13', '--ext', '3'): (1, "d5808f13f57b1e775a2541818ae86b94bec49451981fdd7af14f0e4a5a73d704"),
    ('chi', '--fixture', 'new-tower', '--p', '17', '--ext', '3'): (1, "194a729696f599d7563b050061d6ccbf06f4d6e74109504b5096efa0fe69a7ba"),
    ('chi', '--fixture', 'new-tower', '--p', '19', '--ext', '3'): (1, "c16281164abb220b091069a264f89e3f27fcdc893ff228e6a3c6ad85117c067e"),
    ('chi', '--fixture', 'new-tower', '--p', '23', '--ext', '3'): (1, "17b02b77a68c8c3b7a8213f87301f2b2ec857e89119ddf97f862b0cfe5aa716e"),
    ('chi', '--fixture', 'type-a-toy', '--p', '5', '--ext', '1'): (1, "75c4847ec5bfc630fc770661f273474bc5a36e3ae385b5201efcbb3d2fcc7263"),
    ('chi', '--fixture', 'type-a-toy', '--p', '7', '--ext', '1'): (1, "8d04197e9bca8dae3b25319637c59a4c2a7f0d3527b71e8344de7b8dea01bbd1"),
    ('chi', '--fixture', 'type-a-toy', '--p', '11', '--ext', '1'): (1, "e309d0ce77f672a873d0b0e7c1928ff722ab66d749da3ed603cbc4bda1526e46"),
    ('chi', '--fixture', 'type-a-toy', '--p', '13', '--ext', '1'): (1, "c2871c40845fa0444f95615f542bcc4a01f2f91bb153d9f26f4a133a755692e3"),
    ('chi', '--fixture', 'type-a-toy', '--p', '17', '--ext', '1'): (1, "bade1e738658d48025f78c8e4a4d0b57da501c390fbb4e453958df3ef513e49a"),
    ('chi', '--fixture', 'type-a-toy', '--p', '19', '--ext', '1'): (1, "cb2eb188246cbf8a24c34139c65ac566a12b2cbfe7199735b3b4a01b814a8ccf"),
    ('chi', '--fixture', 'type-a-toy', '--p', '23', '--ext', '1'): (1, "70b66a3ad9e8e783d9bf1f15873fa694d84d18805aeb4bef0a32b34304c28f1e"),
    ('chi', '--fixture', 'type-a-toy', '--p', '29', '--ext', '1'): (1, "ea14142896f38485a8d13781aed77abf44c38db964f9b05ab58465c90dd85524"),
    ('chi', '--fixture', 'type-a-toy', '--p', '31', '--ext', '1'): (1, "b989e62c1868c15da867576b46687321a38b3bdad266e434003ee7c46306cdc4"),
    ('chi', '--fixture', 'type-a-toy', '--p', '37', '--ext', '1'): (1, "e2ef600bd440e464f705f9c6e67f36a497cd668cd091512d58a4e6c7c10bb720"),
    ('chi', '--fixture', 'type-a-toy', '--p', '41', '--ext', '1'): (1, "7d614d790e07daeefd29cae19a723b416dad6da799716ac3a474365f22582df3"),
    ('chi', '--fixture', 'type-a-toy', '--p', '43', '--ext', '1'): (1, "64d558da54b646788478fad3eb64fbf8d7f1efad21dcfd4bcb19bade228f980e"),
    ('chi', '--fixture', 'type-a-toy', '--p', '47', '--ext', '1'): (1, "c036753143198f455c17695447cdbbfb3b33908dc9c84447722de42118f489bd"),
    ('chi', '--fixture', 'type-a-toy', '--p', '5', '--ext', '2'): (1, "aeeeceacefe80000eff73af781e10b4a614183f90b56149762057288fa4e339c"),
    ('chi', '--fixture', 'type-a-toy', '--p', '7', '--ext', '2'): (1, "74dcf11cb9a213f797543145733f5f32ed3f59a8dabc36d136367289276f7991"),
    ('chi', '--fixture', 'type-a-toy', '--p', '11', '--ext', '2'): (1, "095b1d11756e336ba4d9c11c118465da6542edf1d1afaa530ac45380101fce8e"),
    ('chi', '--fixture', 'type-a-toy', '--p', '13', '--ext', '2'): (1, "9721567d0e14a8d87908a10c359dbde0b7ad6893c494b048428bcaa172028c19"),
    ('chi', '--fixture', 'type-a-toy', '--p', '17', '--ext', '2'): (1, "57a20561d16e457a78e0565bfa92f7f1cd1ff352435dd0b8f4dc9f80b78d21fc"),
    ('chi', '--fixture', 'type-a-toy', '--p', '19', '--ext', '2'): (1, "e6aa509a06dadd9e3ea37fcb64b5fbdbfb0f30c607bc7ed1361b8c1fddfaf206"),
    ('chi', '--fixture', 'type-a-toy', '--p', '23', '--ext', '2'): (1, "0bfe05170dcd917ee3a034707eaaa1a6b069f1f1f91a8f520f8d0d6984c52440"),
    ('chi', '--fixture', 'type-a-toy', '--p', '29', '--ext', '2'): (1, "b7e6a6821041b44429f9b5f7231c2de216792fd70dc82df0d1927d87ca96e79e"),
    ('chi', '--fixture', 'type-a-toy', '--p', '31', '--ext', '2'): (1, "0ed235da74218591747bc1bdccd5d2a3c667261f871275b6b4cfa9dbc92e6f99"),
    ('chi', '--fixture', 'type-a-toy', '--p', '37', '--ext', '2'): (1, "0f83d231d15e0fa4819c9199c7368b526a79dcf4459239e9aa0adbce26e77f03"),
    ('chi', '--fixture', 'type-a-toy', '--p', '41', '--ext', '2'): (1, "24574d672c93bc289378635ff96c4d5d5d7fcf296e11d7d066b5c9ae4ac97e4e"),
    ('chi', '--fixture', 'type-a-toy', '--p', '43', '--ext', '2'): (1, "2a743045bc1d8ffb9d352dcc6de0b5c4890c6e18e5ea03cc3fb6d13fed78c1ca"),
    ('chi', '--fixture', 'type-a-toy', '--p', '47', '--ext', '2'): (1, "d19224876b500d342a5ffea2edeab295daf8628c0f7a34675e5377cc8e3257cb"),
    ('chi', '--fixture', 'type-a-toy', '--p', '5', '--ext', '3'): (1, "185c87239fe4b509a60feda405e41a7709b184be90344de02717eeea27981fad"),
    ('chi', '--fixture', 'type-a-toy', '--p', '7', '--ext', '3'): (1, "4e22046e495f5ec89afb1bce0940b319757438c772dcd390c16ce19de2a5c30b"),
    ('chi', '--fixture', 'type-a-toy', '--p', '11', '--ext', '3'): (1, "4cda696ef5c570c564c4ef2a8b753ab3d8b03768e783fe258511b8e6ca57483a"),
    ('chi', '--fixture', 'type-a-toy', '--p', '13', '--ext', '3'): (1, "3451224f26f2fa61c1101652d5be1c88c5ee0cd4c29a63bde22d92323d3b63c0"),
    ('chi', '--fixture', 'type-a-toy', '--p', '17', '--ext', '3'): (1, "448700ac0b496da8fe77d94dc1a5bdd57e4d3a2f7cb757d862a495d5c1457a30"),
    ('chi', '--fixture', 'type-a-toy', '--p', '19', '--ext', '3'): (1, "f0aa333669894e93902e6e567600c56be239c694b3372fd5bc0767367652344d"),
    ('chi', '--fixture', 'type-a-toy', '--p', '23', '--ext', '3'): (1, "b3787e7840eb4bf692028efc1bb28e023474e58c03898e2fe332256b1eb225a9"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '5', '--ext', '1'): (1, "1587b478ef2073e521d393a3e2ee967a4155d67ba588b68ba04137cbe4c2b966"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '7', '--ext', '1'): (1, "dc8b7e009e83ab8b4a61862de4c659daef289befcfd04d6fb2a326771e3e4926"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '11', '--ext', '1'): (1, "af6dedc48e621f3bca92ec91a4b85ab0080210dfc716c40c8e047279c0706b7d"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '13', '--ext', '1'): (1, "e88db0117608272b308c821c7c2b6d1dae653188be4e7722d5de173bf3df6ab4"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '17', '--ext', '1'): (1, "b054b50fc834400349e34bfc21e52851267ba8144f47185bd016cbaa7e824503"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '19', '--ext', '1'): (1, "d5af571ff41ab972e2197b5ee11d40946fe953e62146444a34be70a6fd8d17de"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '23', '--ext', '1'): (1, "a32876c6a3df98fb4527cd0359aa7e21be24c83b23f4f8f62b8134293cc4c001"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '29', '--ext', '1'): (1, "dfdbf8d6b25af5fa010d197275990a0838823fd482c2cc3981d21e91ba5acac3"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '31', '--ext', '1'): (1, "d04d8a6fae1cdbdfbc9da647513a97c50e979a4c86c87182e8f81372d9ba09fb"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '37', '--ext', '1'): (1, "c4df4144885451c8d9160957f89bdf0e2a30a6f11c85eb9dabc7c3e4d5f026ed"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '41', '--ext', '1'): (1, "b6661037f49cbefd9debf6c408afbd19d4f2565d1df21b6e0d95ee4a6976c4ef"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '43', '--ext', '1'): (1, "52865e5ce47d759455ecd32bc60de79dfe288720b5d92b084005a1e8b55efe30"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '47', '--ext', '1'): (1, "c065c30f866599e5f91561f0c537fe487496522e2235ef4bfedf2444030f662f"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '5', '--ext', '2'): (0, "1acc33f3fc28d855e9f1e8d7ce63a0c728132955630feae1f4af3ed11cbd35a2"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '7', '--ext', '2'): (0, "61a78c85b1ef17eeec8da8673726bf3b41d1f5ee00393e0d3fee5ca27ff76059"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '11', '--ext', '2'): (0, "ca0928d348d79b651294ac390271cb775467bff211d99628ba1f8a9899395e1b"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '13', '--ext', '2'): (0, "edfd04dd291f5b72ae5a5819c646e4a90f0fb9876224524808678e260d8af621"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '17', '--ext', '2'): (0, "5a44591f7e92372c506a5cfeb11139ff15a43bf1162df2a2a44bcd5c696ff85b"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '19', '--ext', '2'): (0, "7ff4878e2c84b234caafd1d95abe9a7ddb1d3a9c0a5f75745ac64dddd5e8a313"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '23', '--ext', '2'): (0, "98eb14a4f18f9c645258a93d36045db5fb0aa1283260f1382dc2e1ee3d8e1312"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '29', '--ext', '2'): (0, "39f14b8261569fb311718abe1f3d06a0f95665cf26bf8bc32b7dbc60327fd2c0"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '31', '--ext', '2'): (0, "7cf623066acb61bc24d867467c2c215737c25bdb2cb22e2989c6e09ffd058cbb"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '37', '--ext', '2'): (0, "1ae3525daceabbd8d9a2ac30242851daa759799261bc9dd2fa6516047b734d34"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '41', '--ext', '2'): (0, "bea966e17373d6f043674e59ed16fab1be0a620ccb0c0f02fd2dfe355964af13"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '43', '--ext', '2'): (0, "48f71b752db5a7ca05ca1cf8258825d1d9c1e734f64eef060a5c30d53bbc8fd2"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '47', '--ext', '2'): (0, "70f104f2d8f6a43025899ccf4f08eed5ce62399166e647ee6693f619d11a7798"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '5', '--ext', '3'): (1, "51ca1dccfdba9aae6d7f54c39040445b9b2b52a8d100406e2e2c20da47e1950e"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '7', '--ext', '3'): (1, "bdc88bc1b195fd382c98d671358ee5862a43e4f7f5c5f81f003cd5514bd2cea7"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '11', '--ext', '3'): (1, "7d4368eb19a3b263941a1ee38f318a4e97ed55b9e9fd2694f125e976a5145d1c"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '13', '--ext', '3'): (1, "5f77914f39184163ef6e158864dea096fbd0d1011e9441e7fb8552a5e463571a"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '17', '--ext', '3'): (1, "20dbd2521aad5eb24ad4689c78de5a0df383dd0fb9849f07137f197d8c02bca0"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '19', '--ext', '3'): (1, "70b7a3834b66cb71302fea98cf4dbf440bed3b4e9c291bc141fa5855c9583271"),
    ('feq-check', '--fixture', 'gs-tower', '--p', '23', '--ext', '3'): (1, "7d2fdd789be2c1b9bffbd2caa53056bef5a09dc0037fe7a7a4c87b2cbca15eb4"),
    ('feq-check', '--fixture', 'new-tower', '--p', '5', '--ext', '1'): (0, "a606c09fe19c50d35af959671581da3b9cd55faf9e18eebceea069ea9dac17de"),
    ('feq-check', '--fixture', 'new-tower', '--p', '7', '--ext', '1'): (0, "a7db3e5c791efd6c2efa70ff18325a0b050c606b62487dd828571edd8bac48c7"),
    ('feq-check', '--fixture', 'new-tower', '--p', '11', '--ext', '1'): (0, "010c9673f5cc873f307187521ec8c857023944a202df46b9118728c0458d7b7e"),
    ('feq-check', '--fixture', 'new-tower', '--p', '13', '--ext', '1'): (0, "4b2fdaa1411d9036461db16afba7ab724990973b10ad7415de16585335af2426"),
    ('feq-check', '--fixture', 'new-tower', '--p', '17', '--ext', '1'): (0, "afc519aec03aae383a92211478d2622dfac6520bacb4ce44daf5ccd670743db5"),
    ('feq-check', '--fixture', 'new-tower', '--p', '19', '--ext', '1'): (0, "7c05d7b360db993a589ef6dd073cb4d6dc85b8307eef7231c40a5b8874590c9b"),
    ('feq-check', '--fixture', 'new-tower', '--p', '23', '--ext', '1'): (0, "ad6f4055bd2e6fc6695df992ca1524ecf2a6676ed9d60169a187e78628e58a2e"),
    ('feq-check', '--fixture', 'new-tower', '--p', '29', '--ext', '1'): (0, "0979814482e3688727bf5c5ab353c749ec8284e0979b04568a090e7fd01c2729"),
    ('feq-check', '--fixture', 'new-tower', '--p', '31', '--ext', '1'): (0, "de73e4d4bfa1a29575f7204b771ef3d3c8965e3a3c7f46b9bcd58b3ffda9f256"),
    ('feq-check', '--fixture', 'new-tower', '--p', '37', '--ext', '1'): (0, "7a6554171b2e11207842ed986c10852bd86d7be925ec78a9b1b493e46cf1126a"),
    ('feq-check', '--fixture', 'new-tower', '--p', '41', '--ext', '1'): (0, "e3846efb98bd1c662bc9dce7a52e84b6ba95dc97205ff0dd1e801765e727c1fe"),
    ('feq-check', '--fixture', 'new-tower', '--p', '43', '--ext', '1'): (0, "916fff89cc32b257fe33e03106f7ead0927aa271fcfe64115042b21d3ef3f3bb"),
    ('feq-check', '--fixture', 'new-tower', '--p', '47', '--ext', '1'): (0, "edc814c9cfc78b31d30a327d48f41f4687ce7c51ed31ad4bb1a3f205536b8a08"),
    ('feq-check', '--fixture', 'new-tower', '--p', '5', '--ext', '2'): (0, "a606c09fe19c50d35af959671581da3b9cd55faf9e18eebceea069ea9dac17de"),
    ('feq-check', '--fixture', 'new-tower', '--p', '7', '--ext', '2'): (0, "a7db3e5c791efd6c2efa70ff18325a0b050c606b62487dd828571edd8bac48c7"),
    ('feq-check', '--fixture', 'new-tower', '--p', '11', '--ext', '2'): (0, "010c9673f5cc873f307187521ec8c857023944a202df46b9118728c0458d7b7e"),
    ('feq-check', '--fixture', 'new-tower', '--p', '13', '--ext', '2'): (0, "4b2fdaa1411d9036461db16afba7ab724990973b10ad7415de16585335af2426"),
    ('feq-check', '--fixture', 'new-tower', '--p', '17', '--ext', '2'): (0, "afc519aec03aae383a92211478d2622dfac6520bacb4ce44daf5ccd670743db5"),
    ('feq-check', '--fixture', 'new-tower', '--p', '19', '--ext', '2'): (0, "7c05d7b360db993a589ef6dd073cb4d6dc85b8307eef7231c40a5b8874590c9b"),
    ('feq-check', '--fixture', 'new-tower', '--p', '23', '--ext', '2'): (0, "ad6f4055bd2e6fc6695df992ca1524ecf2a6676ed9d60169a187e78628e58a2e"),
    ('feq-check', '--fixture', 'new-tower', '--p', '29', '--ext', '2'): (0, "0979814482e3688727bf5c5ab353c749ec8284e0979b04568a090e7fd01c2729"),
    ('feq-check', '--fixture', 'new-tower', '--p', '31', '--ext', '2'): (0, "de73e4d4bfa1a29575f7204b771ef3d3c8965e3a3c7f46b9bcd58b3ffda9f256"),
    ('feq-check', '--fixture', 'new-tower', '--p', '37', '--ext', '2'): (0, "7a6554171b2e11207842ed986c10852bd86d7be925ec78a9b1b493e46cf1126a"),
    ('feq-check', '--fixture', 'new-tower', '--p', '41', '--ext', '2'): (0, "e3846efb98bd1c662bc9dce7a52e84b6ba95dc97205ff0dd1e801765e727c1fe"),
    ('feq-check', '--fixture', 'new-tower', '--p', '43', '--ext', '2'): (0, "916fff89cc32b257fe33e03106f7ead0927aa271fcfe64115042b21d3ef3f3bb"),
    ('feq-check', '--fixture', 'new-tower', '--p', '47', '--ext', '2'): (0, "edc814c9cfc78b31d30a327d48f41f4687ce7c51ed31ad4bb1a3f205536b8a08"),
    ('feq-check', '--fixture', 'new-tower', '--p', '5', '--ext', '3'): (0, "a606c09fe19c50d35af959671581da3b9cd55faf9e18eebceea069ea9dac17de"),
    ('feq-check', '--fixture', 'new-tower', '--p', '7', '--ext', '3'): (0, "a7db3e5c791efd6c2efa70ff18325a0b050c606b62487dd828571edd8bac48c7"),
    ('feq-check', '--fixture', 'new-tower', '--p', '11', '--ext', '3'): (0, "010c9673f5cc873f307187521ec8c857023944a202df46b9118728c0458d7b7e"),
    ('feq-check', '--fixture', 'new-tower', '--p', '13', '--ext', '3'): (0, "4b2fdaa1411d9036461db16afba7ab724990973b10ad7415de16585335af2426"),
    ('feq-check', '--fixture', 'new-tower', '--p', '17', '--ext', '3'): (0, "afc519aec03aae383a92211478d2622dfac6520bacb4ce44daf5ccd670743db5"),
    ('feq-check', '--fixture', 'new-tower', '--p', '19', '--ext', '3'): (0, "7c05d7b360db993a589ef6dd073cb4d6dc85b8307eef7231c40a5b8874590c9b"),
    ('feq-check', '--fixture', 'new-tower', '--p', '23', '--ext', '3'): (0, "ad6f4055bd2e6fc6695df992ca1524ecf2a6676ed9d60169a187e78628e58a2e"),
    ('genus', '--n-max', '8', '--p', '5', '--ext', '1'): (1, "fe44fd4293b40d987e0f70bf8f515430e01c80998657be253b112861485073a5"),
    ('genus', '--n-max', '8', '--p', '7', '--ext', '1'): (1, "ff266c3b8edb604b10ffd9f4312cc974e2ae269edf530116600f0f575b45f1a0"),
    ('genus', '--n-max', '8', '--p', '11', '--ext', '1'): (1, "be30fc530bd4980d2cfa5a49a3ecfaff4a64e581f92a0fd0de828d68c3cf6304"),
    ('genus', '--n-max', '8', '--p', '13', '--ext', '1'): (1, "f504c344ca94ff31bf44875f84c81b990fb1bcdd087a29788d2728c5e06cdea0"),
    ('genus', '--n-max', '8', '--p', '17', '--ext', '1'): (1, "f12e5f94db63f1623582c558e262c818eff847977d7a6021d55d842c42c28b3b"),
    ('genus', '--n-max', '8', '--p', '19', '--ext', '1'): (1, "6e8ae1cea07bc7ab7c9abedb6e95c76bd162b18059fa41718178cd30dca779e4"),
    ('genus', '--n-max', '8', '--p', '23', '--ext', '1'): (1, "19f92f50b7d4af3912e358ca86dabc0e67aefd717b6824c3000b5bc1ae79efee"),
    ('genus', '--n-max', '8', '--p', '29', '--ext', '1'): (1, "9a7a65d809f4daf6ef80fbc028c006490f3a9c28e6a5f2b51e705cfbc2e5f60b"),
    ('genus', '--n-max', '8', '--p', '31', '--ext', '1'): (1, "c7c73a97388d20ca356c8398f9944c390fb416b403779e4b1d62a94ee0359665"),
    ('genus', '--n-max', '8', '--p', '37', '--ext', '1'): (1, "ef9b0a1dc28bc1d75974ea5b6f8df816093be3e57ec7444f56b5b9e0a73e6205"),
    ('genus', '--n-max', '8', '--p', '41', '--ext', '1'): (1, "7ae9e3f3061025ddfac33c4919c67694c5f714cd7a3e58e5bebdcdc56882d2c0"),
    ('genus', '--n-max', '8', '--p', '43', '--ext', '1'): (1, "97f4abff3d76660659e4ada29325c47f0d3541b59dedf02ab9b0104fb2476b30"),
    ('genus', '--n-max', '8', '--p', '47', '--ext', '1'): (1, "a3475ecdfe8492562b5653f20e43d5ff252683eaf258571f8cd972a5d7b46e63"),
    ('genus', '--n-max', '8', '--p', '5', '--ext', '2'): (0, "a8a32ea2c798f2b2046716a2a74df6325d754873494f30218aa4f5a6291ec0f9"),
    ('genus', '--n-max', '8', '--p', '7', '--ext', '2'): (0, "f4bd563df804d5f478d7526d16fb225c070a87cdcfa1089df6807ac816403769"),
    ('genus', '--n-max', '8', '--p', '11', '--ext', '2'): (0, "4e52fac4ac01b820824fb0c658e7d3c202c1ff0735212a4dbd345b7aacd96e18"),
    ('genus', '--n-max', '8', '--p', '13', '--ext', '2'): (0, "261edb76d8076ee428cc63b84e03a4f0f4b894027532fb02e367f339dd2852d8"),
    ('genus', '--n-max', '8', '--p', '17', '--ext', '2'): (0, "61785aa29504443b5be14b9c4602d59004a4e7cc244333713915d5b26c4e1b02"),
    ('genus', '--n-max', '8', '--p', '19', '--ext', '2'): (0, "b8cf690b4158247115e8ba1a6ef4d43db397af8afdb8dc7b2bd14819d7a58b89"),
    ('genus', '--n-max', '8', '--p', '23', '--ext', '2'): (0, "46950898c744b4a8fe3d032e8a6b43742c275216957d0df68803b8b100444c3f"),
    ('genus', '--n-max', '8', '--p', '29', '--ext', '2'): (0, "0600e86218b5f0c7363389ccdcba2aa1b74c7d86ba30ae6a6f35186c25aca9b0"),
    ('genus', '--n-max', '8', '--p', '31', '--ext', '2'): (0, "2c86c6178bac898f73e38012fd61b10552d05f0d74287f1eeb54e56dcb9a1ea2"),
    ('genus', '--n-max', '8', '--p', '37', '--ext', '2'): (0, "24d1771c8f03b21a673dc7441ee616eb633f446421dae8a95fe35d7c4fc3541a"),
    ('genus', '--n-max', '8', '--p', '41', '--ext', '2'): (0, "d7b57aa45d9ba03bcd34b7eeba070eba3327b04a540f80e1ab5bfe30be489cc8"),
    ('genus', '--n-max', '8', '--p', '43', '--ext', '2'): (0, "d8bdd1f0d61523b678960574a9f2b50327316cce10aa533339d07fabcf0867f8"),
    ('genus', '--n-max', '8', '--p', '47', '--ext', '2'): (0, "ce0c2ee039a86458af645e1b7e9194c782c283cfb64558a0531e2f87c1f33b53"),
    ('genus', '--n-max', '8', '--p', '5', '--ext', '3'): (1, "8e26420d11fdff263b0c1181da25a7dba77c63f799abd166ece89693e132f7fe"),
    ('genus', '--n-max', '8', '--p', '7', '--ext', '3'): (1, "c7361ff7950d32d9a002bc29a8a9b420bd552b005d48f2a925bb0c7ecf297ae0"),
    ('genus', '--n-max', '8', '--p', '11', '--ext', '3'): (1, "55d396983ff48204674d75a9477bbcd53229b03b00cca29d165a354e3c932ada"),
    ('genus', '--n-max', '8', '--p', '13', '--ext', '3'): (1, "d5808f13f57b1e775a2541818ae86b94bec49451981fdd7af14f0e4a5a73d704"),
    ('genus', '--n-max', '8', '--p', '17', '--ext', '3'): (1, "194a729696f599d7563b050061d6ccbf06f4d6e74109504b5096efa0fe69a7ba"),
    ('genus', '--n-max', '8', '--p', '19', '--ext', '3'): (1, "c16281164abb220b091069a264f89e3f27fcdc893ff228e6a3c6ad85117c067e"),
    ('genus', '--n-max', '8', '--p', '23', '--ext', '3'): (1, "17b02b77a68c8c3b7a8213f87301f2b2ec857e89119ddf97f862b0cfe5aa716e"),
}


@pytest.mark.parametrize("argv", list(COMMAND_EXT_GOLDEN))
def test_command_at_ext_1_to_3_matches_golden_digest(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    digest = hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()
    assert (code, digest) == COMMAND_EXT_GOLDEN[argv]
