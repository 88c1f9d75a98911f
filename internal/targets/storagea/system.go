package storagea

import (
	_ "embed"
	"fmt"
	"strconv"
	"sync"

	"spex/internal/apispec"
	"spex/internal/conffile"
	"spex/internal/constraint"
	"spex/internal/sim"
)

//go:embed corpus.go
var corpusSource string

// System is the Storage-A target.
type System struct{}

// New returns the Storage-A target system.
func New() *System { return &System{} }

func (s *System) Name() string        { return "Storage-A" }
func (s *System) Description() string { return "commercial distributed storage OS (structure mapping)" }

func (s *System) Syntax() conffile.Syntax { return conffile.SyntaxEquals }

func (s *System) Sources() map[string]string {
	return map[string]string{"corpus.go": corpusSource}
}

// ImportAPIs registers Storage-A's proprietary validation library with the
// knowledge base (the paper's customization hook: "for the commercial
// storage software ... we also imported its proprietary library APIs").
func (s *System) ImportAPIs(db *apispec.DB) {
	db.Register(&apispec.FuncSpec{
		Name: "validateInitiator",
		Args: []apispec.ArgSpec{{Index: 0, Semantic: constraint.SemInitiator}},
	})
}

// Annotations: one block per typed column of the option table (5 lines, as
// in Table 4's Storage-A row).
func (s *System) Annotations() string {
	return `# Storage-A option registry: one @VAR column per option kind
{ @STRUCT = saOptions @PAR = [saOption, 1] @VAR = [saOption, 3] }
{ @STRUCT = saOptions @PAR = [saOption, 1] @VAR = [saOption, 4] }
{ @STRUCT = saOptions @PAR = [saOption, 1] @VAR = [saOption, 5] }`
}

func (s *System) DefaultConfig() string {
	return `# Storage-A appliance options
log.filesize = 1048576
log.dir = /vol/log
vol.export.root = /vol/vol0
snap.reserve = 20
raid.stripe.kb = 64
iscsi.enable = on
iscsi.initiator_name = iqn.2013-01.com.example:storage
iscsi.portal.ip = 10.0.0.2
iscsi.port = 3260
iscsi.queue_len = 32
nfs.enable = on
nfs.export.dir = /vol/vol0/home
nfs.max_connections = 1024
nfs.tcp.window = 65536
cifs.enable = off
cifs.share.dir = /vol/vol0/share
cifs.max_mpx = 50
http.enable = off
http.port = 8080
http.admin.dir = /vol/vol0/admin
pcs.size = 1
wafl.cache.mb = 256
log.buffer.kb = 64
readahead.kb = 128
journal.size = 1048576
nvram.size = 524288
cleanup.msec = 200
flush.msec = 500
takeover.sec = 180
giveback.sec = 600
scrub.sec = 3600
status.sec = 10
autosupport.min = 15
weekly.hour = 2
retry.usec = 100
poll.usec = 250
admin.user = root
admin.group = wheel
console.log = /vol/log/console.log
`
}

func (s *System) SetupEnv(env *sim.Env) {
	_ = env.FS.MkdirAll("/vol/log")
	_ = env.FS.MkdirAll("/vol/vol0/home")
	_ = env.FS.MkdirAll("/vol/vol0/share")
	_ = env.FS.MkdirAll("/vol/vol0/admin")
}

type instance struct {
	st        *applianceState
	effective map[string]string
	env       *sim.Env
}

func (i *instance) Effective(param string) (string, bool) {
	v, ok := i.effective[param]
	return v, ok
}

func (i *instance) Stop() { i.env.Net.ReleaseOwner("storagea") }

// bootMu serializes the boot: the corpus models the appliance's real
// global registry options (and snapshot reads them through the option
// table), so concurrent Starts must not interleave until the instance
// detaches.
var bootMu sync.Mutex

func (s *System) Start(env *sim.Env, cfg *conffile.File) (sim.Instance, error) {
	bootMu.Lock()
	defer bootMu.Unlock()
	*scfg = saConfig{}
	applyOptions(cfg.Map())
	st, err := startAppliance(env, scfg)
	if err != nil {
		return nil, err
	}
	eff := snapshot(scfg)
	c := *scfg
	st.conf = &c // detach: the functional tests run outside the boot lock
	return &instance{st: st, effective: eff, env: env}, nil
}

func snapshot(c *saConfig) map[string]string {
	m := map[string]string{}
	for i := range saOptions {
		o := &saOptions[i]
		switch o.kind {
		case "int":
			m[o.name] = strconv.FormatInt(*o.iptr, 10)
		case "str":
			m[o.name] = *o.sptr
		case "bool":
			if *o.bptr {
				m[o.name] = "on"
			} else {
				m[o.name] = "off"
			}
		}
	}
	return m
}

func (s *System) Tests() []sim.FuncTest {
	return []sim.FuncTest{
		{
			Name: "iscsi-discover", Weight: 3,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if !i.st.conf.iscsiEnable {
					return nil
				}
				if !i.st.discoverLUN(i.st.conf.iscsiInitiator) {
					return fmt.Errorf("the storage share cannot be recognized")
				}
				return nil
			},
		},
		{
			Name: "iscsi-port", Weight: 2,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if i.st.conf.iscsiEnable && !env.Net.Occupied("tcp", int(i.st.conf.iscsiPort)) {
					return fmt.Errorf("iSCSI portal is not listening")
				}
				return nil
			},
		},
		{
			Name: "nfs-export", Weight: 4,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if i.st.conf.nfsEnable && !i.st.luns["nfs:"+i.st.conf.nfsExportDir] {
					return fmt.Errorf("NFS export is not being served")
				}
				return nil
			},
		},
		{
			Name: "log-rotate", Weight: 1,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if !i.st.rotateLog(env, "status ok") {
					return fmt.Errorf("log rotation is not operating")
				}
				return nil
			},
		},
		{
			Name: "admin-auth", Weight: 2,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if !lookupUser(i.st.conf.adminUser) {
					return fmt.Errorf("administrative login failed")
				}
				return nil
			},
		},
	}
}

func (s *System) Manual() map[string]sim.ManualEntry {
	doc := func(prose string, kinds ...constraint.Kind) sim.ManualEntry {
		return sim.ManualEntry{Prose: prose, Documented: kinds}
	}
	return map[string]sim.ManualEntry{
		// The unit lives in the parameter NAME (the §5.2 good practice),
		// so units count as documented for the mnemonic parameters.
		"cleanup.msec":  doc("Cleanup interval (milliseconds).", constraint.KindBasicType, constraint.KindSemanticType),
		"takeover.sec":  doc("Takeover timeout (seconds).", constraint.KindBasicType, constraint.KindSemanticType),
		"log.buffer.kb": doc("Log buffer size (KB).", constraint.KindBasicType, constraint.KindSemanticType),
		"wafl.cache.mb": doc("Cache size (MB).", constraint.KindBasicType, constraint.KindSemanticType),
		"iscsi.initiator_name": doc("iSCSI initiator name; lowercase letters, digits, '.', '-', ':' only.",
			constraint.KindBasicType, constraint.KindSemanticType),
		"snap.reserve":    doc("Snapshot reserve percentage, 0-100.", constraint.KindBasicType, constraint.KindRange),
		"iscsi.port":      doc("iSCSI portal port.", constraint.KindBasicType, constraint.KindSemanticType),
		"nfs.export.dir":  doc("Directory exported over NFS.", constraint.KindBasicType, constraint.KindSemanticType),
		"vol.export.root": doc("Root volume path.", constraint.KindBasicType),
	}
}

func (s *System) GroundTruth() *constraint.Set {
	gt := constraint.NewSet("Storage-A")
	b := func(p string, t constraint.BasicType) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindBasicType, Param: p, Basic: t})
	}
	sem := func(p string, t constraint.SemanticType, u constraint.Unit) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindSemanticType, Param: p, Semantic: t, Unit: u})
	}
	rng := func(p string, min, max int64, hasMin, hasMax bool) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindRange, Param: p,
			Intervals: []constraint.Interval{{Min: min, Max: max, HasMin: hasMin, HasMax: hasMax, Valid: true}}})
	}
	dep := func(q, p string, op constraint.Op, v string) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindControlDep, Param: q, Peer: p, Cond: op, Value: v})
	}

	ints := []string{
		"snap.reserve", "raid.stripe.kb", "iscsi.port", "iscsi.queue_len",
		"nfs.max_connections", "nfs.tcp.window", "cifs.max_mpx", "http.port",
		"pcs.size", "wafl.cache.mb", "log.buffer.kb", "readahead.kb",
		"journal.size", "nvram.size", "cleanup.msec", "flush.msec",
		"takeover.sec", "giveback.sec", "scrub.sec", "status.sec",
		"autosupport.min", "weekly.hour", "retry.usec", "poll.usec",
	}
	for _, p := range ints {
		b(p, constraint.BasicInt64)
	}
	b("log.filesize", constraint.BasicInt32) // string transformed to int32
	for _, p := range []string{
		"log.dir", "vol.export.root", "iscsi.initiator_name", "iscsi.portal.ip",
		"nfs.export.dir", "cifs.share.dir", "http.admin.dir", "admin.user",
		"admin.group", "console.log",
	} {
		b(p, constraint.BasicString)
	}
	for _, p := range []string{"iscsi.enable", "nfs.enable", "cifs.enable", "http.enable"} {
		b(p, constraint.BasicBool)
	}

	sem("iscsi.initiator_name", constraint.SemInitiator, constraint.UnitNone)
	sem("iscsi.port", constraint.SemPort, constraint.UnitNone)
	sem("http.port", constraint.SemPort, constraint.UnitNone)
	sem("log.dir", constraint.SemDirectory, constraint.UnitNone)
	sem("nfs.export.dir", constraint.SemDirectory, constraint.UnitNone)
	sem("cifs.share.dir", constraint.SemDirectory, constraint.UnitNone)
	sem("http.admin.dir", constraint.SemDirectory, constraint.UnitNone)
	sem("console.log", constraint.SemFile, constraint.UnitNone)
	sem("admin.user", constraint.SemUser, constraint.UnitNone)
	sem("admin.group", constraint.SemGroup, constraint.UnitNone)
	sem("pcs.size", constraint.SemSize, constraint.UnitGB)
	sem("wafl.cache.mb", constraint.SemSize, constraint.UnitMB)
	sem("log.buffer.kb", constraint.SemSize, constraint.UnitKB)
	sem("readahead.kb", constraint.SemSize, constraint.UnitKB)
	sem("journal.size", constraint.SemSize, constraint.UnitByte)
	sem("nvram.size", constraint.SemSize, constraint.UnitByte)
	sem("nfs.tcp.window", constraint.SemSize, constraint.UnitByte)
	sem("cleanup.msec", constraint.SemTimeout, constraint.UnitMillisecond)
	sem("flush.msec", constraint.SemTimeout, constraint.UnitMillisecond)
	sem("takeover.sec", constraint.SemTimeout, constraint.UnitSecond)
	sem("giveback.sec", constraint.SemTimeout, constraint.UnitSecond)
	sem("scrub.sec", constraint.SemTimeout, constraint.UnitSecond)
	sem("status.sec", constraint.SemTimeout, constraint.UnitSecond)
	sem("autosupport.min", constraint.SemTimeout, constraint.UnitMinute)
	sem("weekly.hour", constraint.SemTimeout, constraint.UnitHour)
	sem("retry.usec", constraint.SemTimeout, constraint.UnitMicrosecond)
	sem("poll.usec", constraint.SemTimeout, constraint.UnitMicrosecond)

	rng("snap.reserve", 0, 100, true, true)
	rng("raid.stripe.kb", 4, 256, true, true)
	rng("iscsi.queue_len", 1, 256, true, true)
	rng("nfs.max_connections", 16, 0, true, false)
	rng("cifs.max_mpx", 2, 0, true, false)

	dep("iscsi.initiator_name", "iscsi.enable", constraint.OpEQ, "true")
	dep("iscsi.port", "iscsi.enable", constraint.OpEQ, "true")
	dep("iscsi.queue_len", "iscsi.enable", constraint.OpEQ, "true")
	dep("nfs.export.dir", "nfs.enable", constraint.OpEQ, "true")
	dep("nfs.max_connections", "nfs.enable", constraint.OpEQ, "true")
	dep("nfs.tcp.window", "nfs.enable", constraint.OpEQ, "true")
	dep("cifs.share.dir", "cifs.enable", constraint.OpEQ, "true")
	dep("cifs.max_mpx", "cifs.enable", constraint.OpEQ, "true")
	dep("http.port", "http.enable", constraint.OpEQ, "true")
	dep("http.admin.dir", "http.enable", constraint.OpEQ, "true")
	return gt
}

var _ sim.System = (*System)(nil)
var _ interface{ ImportAPIs(*apispec.DB) } = (*System)(nil)
