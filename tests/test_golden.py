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
