package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"testing"

	"classpack/internal/classfile"
	"classpack/internal/encoding/varint"
	"classpack/internal/refs"
	"classpack/internal/streams"
	"classpack/internal/synth"
)

// decodableSchemes lists every scheme Pack accepts, in Table 3 order.
var decodableSchemes = []refs.Scheme{refs.Simple, refs.Basic, refs.MTFBasic,
	refs.MTFTransients, refs.MTFContext, refs.MTFFull}

// pinnedDigests holds the SHA-256 of Pack's output for each case of
// TestPackedBytesPinned, plus one digest over Traces' per-pool events.
// Every case packs with Compress off, so no DEFLATE implementation can
// move a digest: only the wire format can. An entry may change only
// with a deliberate wire-format change.
var pinnedDigests = map[string]string{
	"202_jess/traces":                                "bdbcd6efddda0f65a719cbc948ebc7a5053f3157f3fc9b64e633bd7dcb9ce2b8",
	"202_jess/v1":                                    "bb621ff24e9b65aa0024407897c946ac7532c9ab6fedf6769de0ac7e85cff9e8",
	"202_jess/v2/Basic/ss=false/pre=false":           "30221a8a75c1c3a9434cbd702b3dfebdf23a21ec4667fee9637d490994feedf7",
	"202_jess/v2/Basic/ss=false/pre=true":            "a1089fb6bb1e767edba286e27a06fac125018396f04dfb437c1b7a77c8944e68",
	"202_jess/v2/Basic/ss=true/pre=false":            "08170a69c35aeaaae3b4abd24b0ad093b5016e0fb1f5435fece30f9112922fab",
	"202_jess/v2/Basic/ss=true/pre=true":             "b0297cc5d418c096338d34740c39a4190540669c3aa04e51e1f95ef9e27afb12",
	"202_jess/v2/MTF Basic/ss=false/pre=false":       "aaefd708c6b5358a73ea12c2d7dbf61ebaa11622f8bf38f9378b3229d67a20f4",
	"202_jess/v2/MTF Basic/ss=false/pre=true":        "20649064cdb830fb004f1a2f10f4e272cbd662aba02b7ab5d3c1d1c4be443c4d",
	"202_jess/v2/MTF Basic/ss=true/pre=false":        "3d95da103999b204d00af3010fe9588358a3d1ebc69e1bd9b11498236127cc9d",
	"202_jess/v2/MTF Basic/ss=true/pre=true":         "e92a5bc58f90e31aaaddbefbbf454aa42e2ff670bc8870c5c2138f38ff6e57d8",
	"202_jess/v2/MTF Context/ss=false/pre=false":     "dfbfd00580c51421e78a7b3944a78fd638b79c70d403635533674436b6118775",
	"202_jess/v2/MTF Context/ss=false/pre=true":      "a83a7c2704896e2c477c33f1660a5fd8a84c5cd2ff8571323f8a08282fa2cc7e",
	"202_jess/v2/MTF Context/ss=true/pre=false":      "9a21ca68afc7fb7fb972cd899412d7dc28fc25516e00759cbac7159c150c723f",
	"202_jess/v2/MTF Context/ss=true/pre=true":       "c78affc49344bbb9fc8e8bd80f1be298c2990b459c857e4493dc6f6d76799f9e",
	"202_jess/v2/MTF Trans+Ctx/ss=false/pre=false":   "6f57f0a997cf8405b779ec4d7356b795b15a051a37c307f0b54b4371059b02d8",
	"202_jess/v2/MTF Trans+Ctx/ss=false/pre=true":    "66cfb3e64c07ed8cf5ef818f70b4ddfeaf709d95d597186fe478b9188a4fa6e7",
	"202_jess/v2/MTF Trans+Ctx/ss=true/pre=false":    "983bf1e8f8fbdae784811435de03fce3be4297e18cdf219ea598ee6e2200901b",
	"202_jess/v2/MTF Trans+Ctx/ss=true/pre=true":     "688baf5bc94af805f7bcce846cc27e595eda1904a7b03ee1a875e4fdc9f5c269",
	"202_jess/v2/MTF Transients/ss=false/pre=false":  "d38e0c3892c53c593b60bd294635273120636e399653295bc0e4f1f4fdcebac6",
	"202_jess/v2/MTF Transients/ss=false/pre=true":   "8486b1ff1a477768fb25b7916ce07dfd88eca035dba584d1ef53279a04383beb",
	"202_jess/v2/MTF Transients/ss=true/pre=false":   "45144d36d0849d7f7038b481a60a8ae454e9e156bd9f16445a1fe765e5c6c298",
	"202_jess/v2/MTF Transients/ss=true/pre=true":    "ed7ac5c86f2087054102c1f257af6ea0ac0ae6f290c9bb877d42e5ddcfcf1ba0",
	"202_jess/v2/Simple/ss=false/pre=false":          "24dc26f89724a8da301fc3724776e5d237d33fc3d77f8d8f3ab1d417675a98ad",
	"202_jess/v2/Simple/ss=false/pre=true":           "f424e29288e338a0b371a0bc4ba0c9885df960d951b0d67829a3a840d1bd9123",
	"202_jess/v2/Simple/ss=true/pre=false":           "e35b030fa726203e6dddb46eea43c320e3201c4a8d43a9c7b74323ae2a927da6",
	"202_jess/v2/Simple/ss=true/pre=true":            "8f8a15f62b5938676c9a6f60f0605deb19816e8d420ae3be21df59707935c094",
	"202_jess/v3/chunk=1":                            "953db48646c84895711fb1d07e5e7ce12412efe3ac984b01e162a365d932319c",
	"202_jess/v3/chunk=2":                            "9760ea1855a089d6f65bc03aef5673e8defd44e7b7304598b7c8a9501ff3d261",
	"202_jess/v3/chunk=64":                           "bdefed134a72a81072f81aeaaded819b1f423bae4a951a55b72cc6ae47312000",
	"Hanoi_jax/traces":                               "61606c2cca7732c6a6f7f52bdb513183a5cd14dca6568681a08891ca35520532",
	"Hanoi_jax/v1":                                   "f9195979e7655c76e0078e2ebd64515d20a76a52c65ed219d80b7a977738580c",
	"Hanoi_jax/v2/Basic/ss=false/pre=false":          "7fb56e70ec285428d7491039fbbe2ae95300926ed29a397c079bd47bb710e5db",
	"Hanoi_jax/v2/Basic/ss=false/pre=true":           "b9cb5f316766b1a24f83a203d71be077f4975df72b5f8313ca46479a6f5ef02d",
	"Hanoi_jax/v2/Basic/ss=true/pre=false":           "68bef572a3541949e8ce8c16e7bf8cc711f4384e13f4ea1007820834a2fc9d18",
	"Hanoi_jax/v2/Basic/ss=true/pre=true":            "55606875c3423c9e660e97fdcbd1da9ca99f6bfcb8d08ba3b62af04ecf41bcae",
	"Hanoi_jax/v2/MTF Basic/ss=false/pre=false":      "275cf1a5051ff434d2bc6a1d93c5a958a6a1a498da6256e0e85acaee865cd4fd",
	"Hanoi_jax/v2/MTF Basic/ss=false/pre=true":       "18f42c599291e23e536bf2886eeea48112b7032d4f6b01696de97a1d2d8130d6",
	"Hanoi_jax/v2/MTF Basic/ss=true/pre=false":       "333db930aba3626a485171b2e1097495a0b7c1e894b984b2ffdf303c5f19f4e9",
	"Hanoi_jax/v2/MTF Basic/ss=true/pre=true":        "50c86851fa8a541fbe0b2b859c41dadb7cc664d76fc60bc1995fa8f06ae6b401",
	"Hanoi_jax/v2/MTF Context/ss=false/pre=false":    "ccb0f9b61d5555107d1090e5b78c36292a5fbf568786be6843913889b6a18ea3",
	"Hanoi_jax/v2/MTF Context/ss=false/pre=true":     "7a8261a3d68b280b0a1d8bb9239d52ddc47d8359f46024a9db4863dab66f49ff",
	"Hanoi_jax/v2/MTF Context/ss=true/pre=false":     "f919d9393c275a7fd3c8f121cdb9ac2f76b5d8d4e34d1679da9af0b3b30f55ba",
	"Hanoi_jax/v2/MTF Context/ss=true/pre=true":      "2469d54dfae0f60b50597c74d9c2926e332bfcbc27af634a61735da4e098cb85",
	"Hanoi_jax/v2/MTF Trans+Ctx/ss=false/pre=false":  "523f3668b60220ad34d697201ce17d5c2d16a20a75620f7b55126d71a034e4bc",
	"Hanoi_jax/v2/MTF Trans+Ctx/ss=false/pre=true":   "f3b1a132d0fc034296128177e6f6ee45976b1354851d141ba902c1b8c036c7b8",
	"Hanoi_jax/v2/MTF Trans+Ctx/ss=true/pre=false":   "88d12f4c0564909b647a303c29155f42af641fc953c46a4ce6e7228827420d91",
	"Hanoi_jax/v2/MTF Trans+Ctx/ss=true/pre=true":    "be57aff02e76dd66d679ffca6957089c40e6f85ba71cf067665a33931ce943ad",
	"Hanoi_jax/v2/MTF Transients/ss=false/pre=false": "807c4cc165c4349e4c5f368daaa19590a22a14d0cc7ce8f9b4fd039cf5d4a19d",
	"Hanoi_jax/v2/MTF Transients/ss=false/pre=true":  "444fc20a071e89156dfcab9f2e16a700ab08d68417b42ec1ccf7a1c83b9bd485",
	"Hanoi_jax/v2/MTF Transients/ss=true/pre=false":  "43629a4a7cb0246a5219bf19a2d3b708afe1098ef3e69a558fcded82d4a309a5",
	"Hanoi_jax/v2/MTF Transients/ss=true/pre=true":   "a215fe1cdb4fa733348376b3b4e57382e7cf2ab9290a604a627c0a4fb150c59a",
	"Hanoi_jax/v2/Simple/ss=false/pre=false":         "35e306dfb8b003100c3e8a61b411ce32853576cd885dd03086bb253cbe01aec7",
	"Hanoi_jax/v2/Simple/ss=false/pre=true":          "a51b01d8f04fa9ed8e99b72743aac610f29d384e6b62b35cca6f29904dcc3643",
	"Hanoi_jax/v2/Simple/ss=true/pre=false":          "09e016903e40c042a61186463837c695f8ad346baf5db80d0f63c25e34af28ea",
	"Hanoi_jax/v2/Simple/ss=true/pre=true":           "42a30f6e805587f9fc5449ca54a7270df0bd49b1cfde6424d7298ef4e8a7a246",
	"Hanoi_jax/v3/chunk=1":                           "ac589fe7d780ef552bef8127c088b1c18cce903d11ad02276786fcbefecd8dc5",
	"Hanoi_jax/v3/chunk=2":                           "4e839c2c4ecca51d52d723bcbd79a627f8b64d9448114cb9ab2f67df99c9429e",
	"Hanoi_jax/v3/chunk=64":                          "c2ac5e629737470d068621364d8fe216c071841338184ba12bdd29ef0a61309a",
	"empty-string/v2":                                "e22e09e571d1625b04082889c0534b4a4602a891d3303cddb06460d64f24b63d",
	"tools/traces":                                   "bae6e8fcf64ed15810a11575a3dec025780f8a95d3b86ad19d08b91a93b9e288",
	"tools/v1":                                       "8fa8206ea66c0f4e4f0666276e8fb97a9ffd0baafbf91fe6f2af46b9c76fdd97",
	"tools/v2/Basic/ss=false/pre=false":              "3141e78403cd7089d46cd85aa21d8176c4250d19a34259b237d1ba88faf344b4",
	"tools/v2/Basic/ss=false/pre=true":               "daac6bbbda3035fa92f2d0c042c80e70517c00c3a57c359ee41a918d40533b75",
	"tools/v2/Basic/ss=true/pre=false":               "ce24c21ec6b3ee52eed9c5dd021919534fe05e1232c610f198ee83e8c9af59aa",
	"tools/v2/Basic/ss=true/pre=true":                "fad6acb4b406f0545960143449774661aa8a6cf8957ed11ac80b61ba079e6923",
	"tools/v2/MTF Basic/ss=false/pre=false":          "dd4b105df75eacbd9129d24af3f88b8b28704804e3f4b697fd2ec23a55e89bb2",
	"tools/v2/MTF Basic/ss=false/pre=true":           "39c983641dfb6462f1c5f536741d1444488b3455f262fe6954a1c1fcdbcebb20",
	"tools/v2/MTF Basic/ss=true/pre=false":           "e5383046f830920b4c16eebe42f975f2988fe2a87a35717c99b1b6cffbe9efae",
	"tools/v2/MTF Basic/ss=true/pre=true":            "8f86d1b02ccda34a34e97436dd462abe2f65dcecb66ba8f6e38a3623be9f4bb5",
	"tools/v2/MTF Context/ss=false/pre=false":        "2d9944fda48206678fc19ff9c66fe77f2dd8002fea94c659664159e7e56aa04d",
	"tools/v2/MTF Context/ss=false/pre=true":         "57f7c376a53451d78fa725bc3a415c3262f2c3f9ce2a28911ba706d8f61beccd",
	"tools/v2/MTF Context/ss=true/pre=false":         "edab049fef7b903decc439a82467be3dcf5f5878e86089e373bd87ee6b9f4b98",
	"tools/v2/MTF Context/ss=true/pre=true":          "16d0b81d12c28a8bd1fcef662f688fa42e651a8bf97099daee3a62f7f5cc9e4a",
	"tools/v2/MTF Trans+Ctx/ss=false/pre=false":      "7b24127efb3ac8b61d819f46df0cd3af33c18eb24d71acef67ff539ba498c4a5",
	"tools/v2/MTF Trans+Ctx/ss=false/pre=true":       "23dc45e6dbad21877cdb8da32d275729d9e762a6b4aa1d05b5994349ed13d34d",
	"tools/v2/MTF Trans+Ctx/ss=true/pre=false":       "3090d5eaa865855a8f7c36a133f1559654ad764c94d121850837a0de47ec4b2d",
	"tools/v2/MTF Trans+Ctx/ss=true/pre=true":        "25c963e2074547b8a054a0d88b8c49d7dcef4e5c0322ebe0437fc0a1126db25a",
	"tools/v2/MTF Transients/ss=false/pre=false":     "e0c4275262449050a76add8be1a7a9cc4628a9be913a94155a3b549adc4a4031",
	"tools/v2/MTF Transients/ss=false/pre=true":      "01ce024ffffa027f9a0916611e87954af2bfdc300b814577db0779904530dbd9",
	"tools/v2/MTF Transients/ss=true/pre=false":      "8c7f2383c7409e6739eefff2b43224be64c4e4607ec8185b94345c1972af37da",
	"tools/v2/MTF Transients/ss=true/pre=true":       "48fcc1b4e6be8b13a899cb3c786bd4bc0ab9dfb3e52dcc7da55c9b114541ba6f",
	"tools/v2/Simple/ss=false/pre=false":             "8e83e102501259da5e0276a5ac846b825151b6f9c20bff381d792c2bc0578237",
	"tools/v2/Simple/ss=false/pre=true":              "65d18fc5615d34c9260ccfe5d3aedf402292332122f44c50ed3ce5050eb91a7e",
	"tools/v2/Simple/ss=true/pre=false":              "a2085c2845b72c08e24b9d3822f4e7f634c7531d4e72a97b3be16190f27a55bf",
	"tools/v2/Simple/ss=true/pre=true":               "91b22239ac80194ccb36b71a682a2ac744be3d353a0c3899bd2a5ad9255bf42d",
	"tools/v3/chunk=1":                               "5c95458693302d16afe5bdf09c27f3de196bdf3bfcb103b8ee4fca7d2863fbbe",
	"tools/v3/chunk=2":                               "5e515ca439cb860a4e96fa8b2f903125af6f11ed457c7c7f5ca6010f4ae6c203",
	"tools/v3/chunk=64":                              "24813153e2d84ba7140c85578eb8e53e7bf6f1f1192975384ba8cc36304dfaa6",
}

// pinnedCorpora are the corpora TestPackedBytesPinned packs, each at
// scale 0.2.
var pinnedCorpora = []string{"tools", "202_jess", "Hanoi_jax"}

// TestPackedBytesPinned packs fixed corpora under every decodable scheme
// × StackState × Preload as version 2, the defaults as version 1, and
// version 3 at chunk sizes 1, 2 and 64 through both Pack and PackStream,
// and compares each archive's SHA-256 with the pinned value. A failure
// prints the entries a deliberate format change would pin.
func TestPackedBytesPinned(t *testing.T) {
	got := map[string]string{}
	for _, name := range pinnedCorpora {
		p, err := synth.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfs, err := synth.GenerateStripped(p, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		pin := func(key string, packed []byte) {
			sum := sha256.Sum256(packed)
			got[name+"/"+key] = hex.EncodeToString(sum[:])
		}
		pack := func(key string, opts Options, ver byte) {
			packed, err := PackVersion(cfs, opts, ver)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, key, err)
			}
			pin(key, packed)
		}
		for _, scheme := range decodableSchemes {
			for _, ss := range []bool{false, true} {
				for _, pre := range []bool{false, true} {
					opts := Options{Scheme: scheme, StackState: ss, Preload: pre, Concurrency: 2}
					pack(fmt.Sprintf("v2/%v/ss=%v/pre=%v", scheme, ss, pre), opts, Version2)
				}
			}
		}
		opts := DefaultOptions()
		opts.Compress = false
		pack("v1", opts, Version1)
		for _, chunk := range []int{1, 2, 64} {
			opts.ChunkClasses = chunk
			key := fmt.Sprintf("v3/chunk=%d", chunk)
			pack(key, opts, Version3)
			var buf bytes.Buffer
			i := 0
			next := func() (*classfile.ClassFile, error) {
				if i == len(cfs) {
					return nil, io.EOF
				}
				i++
				return cfs[i-1], nil
			}
			if err := PackStream(&buf, next, opts); err != nil {
				t.Fatalf("%s/%s PackStream: %v", name, key, err)
			}
			if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != got[name+"/"+key] {
				t.Errorf("%s/%s: PackStream output differs from Pack", name, key)
			}
		}
		traces, err := Traces(cfs, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: Traces: %v", name, err)
		}
		pin("traces", traceBytes(traces))
	}
	got["empty-string/v2"] = packEmptyString(t)

	var stale []string
	for key, sum := range got {
		if pinnedDigests[key] != sum {
			stale = append(stale, fmt.Sprintf("\t%q: %q,", key, sum))
		}
	}
	for key := range pinnedDigests {
		if _, ok := got[key]; !ok {
			t.Errorf("pinned case %s was not packed", key)
		}
	}
	if len(stale) > 0 {
		sort.Strings(stale)
		t.Errorf("%d of %d digests differ from the pinned ones; the entries for the current output are:\n%s",
			len(stale), len(got), strings.Join(stale, "\n"))
	}
}

// packEmptyString packs, as version 2, a class whose only string
// constant is "" and returns the archive's SHA-256. A stream enters the
// container on its first write, even an empty one, so the archive must
// hold str.str.chr with no bytes.
func packEmptyString(t *testing.T) string {
	t.Helper()
	b := classfile.NewBuilder("p/E", "java/lang/Object", classfile.AccPublic|classfile.AccSuper)
	f := b.AddField(classfile.AccStatic|classfile.AccFinal, "s", "Ljava/lang/String;")
	b.AttachConstantValue(f, b.String(""))
	cf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfs := []*classfile.ClassFile{cf}
	strippedBytes(t, cfs)
	packed, err := PackVersion(cfs, Options{Scheme: refs.MTFFull, StackState: true}, Version2)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := streams.Sections(packed[6:], true)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(secs, func(s streams.Section) bool { return s.Name == "str.str.chr" && s.Len == 0 }) {
		t.Errorf("empty-string archive has no empty str.str.chr stream: %+v", secs)
	}
	sum := sha256.Sum256(packed)
	return hex.EncodeToString(sum[:])
}

// traceBytes serializes Traces' result deterministically: pools in name
// order, each as its name, its event count and every event's context
// and key.
func traceBytes(traces map[string][]refs.Event) []byte {
	names := make([]string, 0, len(traces))
	for name := range traces {
		names = append(names, name)
	}
	sort.Strings(names)
	var b []byte
	for _, name := range names {
		b = varint.AppendUint(b, uint64(len(name)))
		b = append(b, name...)
		b = varint.AppendUint(b, uint64(len(traces[name])))
		for _, ev := range traces[name] {
			b = varint.AppendUint(b, uint64(ev.Ctx))
			b = varint.AppendUint(b, uint64(len(ev.Key)))
			b = append(b, ev.Key...)
		}
	}
	return b
}
