package ftpd

import (
	_ "embed"
	"fmt"
	"strconv"
	"sync"

	"spex/internal/conffile"
	"spex/internal/constraint"
	"spex/internal/sim"
)

//go:embed corpus.go
var corpusSource string

// System is the ftpd target.
type System struct{}

// New returns the ftpd target system.
func New() *System { return &System{} }

func (s *System) Name() string        { return "ftpd" }
func (s *System) Description() string { return "VSFTP-like FTP server (structure mapping)" }

func (s *System) Syntax() conffile.Syntax { return conffile.SyntaxEquals }

func (s *System) Sources() map[string]string {
	return map[string]string{"corpus.go": corpusSource}
}

// Annotations: one block per typed column (VSFTP needed 5 lines in
// Table 4).
func (s *System) Annotations() string {
	return `# vsftpd-style option table, one @VAR column per type
{ @STRUCT = ftpOptions @PAR = [ftpOption, 1] @VAR = [ftpOption, 2] }
{ @STRUCT = ftpOptions @PAR = [ftpOption, 1] @VAR = [ftpOption, 3] }
{ @STRUCT = ftpOptions @PAR = [ftpOption, 1] @VAR = [ftpOption, 4] }`
}

func (s *System) DefaultConfig() string {
	return `# ftpd configuration
listen = yes
listen_ipv6 = no
listen_port = 2121
listen_address = 0.0.0.0
max_clients = 0
max_per_ip = 0
accept_timeout = 60
connect_timeout = 60
idle_session_timeout = 300
data_connection_timeout = 300
pasv_min_port = 50000
pasv_max_port = 50100
anonymous_enable = yes
anon_root = /srv/ftp
anon_max_rate = 0
anon_umask = 77
local_enable = no
local_root = /home
local_umask = 77
write_enable = no
chroot_local_user = no
xferlog_enable = yes
xferlog_file = /var/log/ftpd/xferlog
ssl_enable = no
rsa_cert_file = /etc/ssl/certs/ftpd.pem
ftp_username = ftp
ftpd_banner = Welcome to ftpd.
virtual_use_local_privs = no
one_process_mode = no
hide_ids = no
`
}

func (s *System) SetupEnv(env *sim.Env) {
	_ = env.FS.MkdirAll("/srv/ftp")
	_ = env.FS.WriteFile("/srv/ftp/README", []byte("hello"), 6)
	_ = env.FS.MkdirAll("/home")
	_ = env.FS.MkdirAll("/var/log/ftpd")
	_ = env.FS.WriteFile("/etc/ssl/certs/ftpd.pem", []byte("CERT"), 6)
}

type instance struct {
	st        *ftpdState
	effective map[string]string
	env       *sim.Env
}

func (i *instance) Effective(param string) (string, bool) {
	v, ok := i.effective[param]
	return v, ok
}

func (i *instance) Stop() { i.env.Net.ReleaseOwner("ftpd") }

// bootMu serializes the boot: the corpus models VSFTP's real global
// tunable variables (and snapshot reads them through the option table),
// so concurrent Starts must not interleave until the instance detaches.
var bootMu sync.Mutex

func (s *System) Start(env *sim.Env, cfg *conffile.File) (sim.Instance, error) {
	bootMu.Lock()
	defer bootMu.Unlock()
	*fcfg = ftpConfig{}
	applyFtpOptions(cfg.Map())
	st, err := startFtpd(env, fcfg)
	if err != nil {
		return nil, err
	}
	eff := snapshot()
	c := *fcfg
	st.conf = &c // detach: the functional tests run outside the boot lock
	return &instance{st: st, effective: eff, env: env}, nil
}

func snapshot() map[string]string {
	m := map[string]string{}
	for i := range ftpOptions {
		o := &ftpOptions[i]
		switch {
		case o.iptr != nil:
			m[o.name] = strconv.FormatInt(*o.iptr, 10)
		case o.sptr != nil:
			m[o.name] = *o.sptr
		default:
			if *o.bptr {
				m[o.name] = "yes"
			} else {
				m[o.name] = "no"
			}
		}
	}
	return m
}

func (s *System) Tests() []sim.FuncTest {
	return []sim.FuncTest{
		{
			Name: "listen", Weight: 1,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if i.st.conf.listen && !env.Net.Occupied("tcp", int(i.st.conf.listenPort)) {
					return fmt.Errorf("ftpd is not listening")
				}
				return nil
			},
		},
		{
			Name: "anon-login", Weight: 2,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if !i.st.conf.anonEnable {
					return nil
				}
				if !i.st.login(env, "anonymous") {
					return fmt.Errorf("anonymous login refused")
				}
				return nil
			},
		},
		{
			Name: "dir-list", Weight: 3,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if !i.st.conf.anonEnable {
					return nil
				}
				if _, ok := i.st.listDir(env); !ok {
					return fmt.Errorf("LIST failed on the anonymous root")
				}
				return nil
			},
		},
		{
			Name: "xferlog", Weight: 2,
			Run: func(env *sim.Env, in sim.Instance) error {
				i := in.(*instance)
				if i.st.conf.xferlogEnable && !env.FS.Exists(i.st.conf.xferlogFile) {
					return fmt.Errorf("transfer log missing")
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
		"listen":        doc("Run in standalone IPv4 mode (YES/NO).", constraint.KindBasicType, constraint.KindRange),
		"listen_ipv6":   doc("Run in standalone IPv6 mode (YES/NO).", constraint.KindBasicType, constraint.KindRange),
		"listen_port":   doc("Port for incoming FTP connections.", constraint.KindBasicType, constraint.KindSemanticType),
		"anon_root":     doc("Directory for anonymous sessions.", constraint.KindBasicType, constraint.KindSemanticType),
		"ftp_username":  doc("User for anonymous access.", constraint.KindBasicType, constraint.KindSemanticType),
		"rsa_cert_file": doc("RSA certificate for SSL.", constraint.KindBasicType, constraint.KindSemanticType),
		// The 47 undocumented control dependencies of Table 8: none of
		// the enable-flag dependencies appear in the manual.
	}
}

func (s *System) GroundTruth() *constraint.Set {
	gt := constraint.NewSet("ftpd")
	b := func(p string, t constraint.BasicType) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindBasicType, Param: p, Basic: t})
	}
	sem := func(p string, t constraint.SemanticType, u constraint.Unit) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindSemanticType, Param: p, Semantic: t, Unit: u})
	}
	var bools, ints, strs []string
	for i := range ftpOptions {
		o := &ftpOptions[i]
		switch {
		case o.iptr != nil:
			ints = append(ints, o.name)
		case o.sptr != nil:
			strs = append(strs, o.name)
		default:
			bools = append(bools, o.name)
		}
	}
	for _, p := range ints {
		b(p, constraint.BasicInt64)
	}
	for _, p := range strs {
		b(p, constraint.BasicString)
	}
	for _, p := range bools {
		b(p, constraint.BasicBool)
		gt.Add(&constraint.Constraint{Kind: constraint.KindRange, Param: p,
			Enum: []constraint.EnumValue{{Value: "yes", Valid: true}, {Value: "no", Valid: true}}})
	}
	sem("listen_port", constraint.SemPort, constraint.UnitNone)
	sem("listen_address", constraint.SemIPAddr, constraint.UnitNone)
	sem("accept_timeout", constraint.SemTimeout, constraint.UnitSecond)
	sem("connect_timeout", constraint.SemTimeout, constraint.UnitSecond)
	sem("idle_session_timeout", constraint.SemTimeout, constraint.UnitSecond)
	sem("data_connection_timeout", constraint.SemTimeout, constraint.UnitSecond)
	sem("anon_root", constraint.SemDirectory, constraint.UnitNone)
	sem("local_root", constraint.SemDirectory, constraint.UnitNone)
	sem("xferlog_file", constraint.SemFile, constraint.UnitNone)
	sem("rsa_cert_file", constraint.SemFile, constraint.UnitNone)
	sem("ftp_username", constraint.SemUser, constraint.UnitNone)

	rng := func(p string, min, max int64, hasMin, hasMax bool) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindRange, Param: p,
			Intervals: []constraint.Interval{{Min: min, Max: max, HasMin: hasMin, HasMax: hasMax, Valid: true}}})
	}
	rng("max_clients", 0, 0, true, false)
	rng("max_per_ip", 0, 0, true, false)
	rng("anon_umask", 0, 777, false, true)
	rng("local_umask", 0, 777, false, true)

	gt.Add(&constraint.Constraint{Kind: constraint.KindValueRel,
		Param: "pasv_min_port", Rel: constraint.OpLE, Peer: "pasv_max_port"})

	dep := func(q, p string, op constraint.Op, v string) {
		gt.Add(&constraint.Constraint{Kind: constraint.KindControlDep, Param: q, Peer: p, Cond: op, Value: v})
	}
	dep("listen_address", "listen", constraint.OpEQ, "true")
	dep("anon_root", "anonymous_enable", constraint.OpEQ, "true")
	dep("anon_max_rate", "anonymous_enable", constraint.OpEQ, "true")
	dep("local_umask", "local_enable", constraint.OpEQ, "true")
	dep("xferlog_file", "xferlog_enable", constraint.OpEQ, "true")
	dep("rsa_cert_file", "ssl_enable", constraint.OpEQ, "true")
	dep("virtual_use_local_privs", "one_process_mode", constraint.OpEQ, "false")
	return gt
}

var _ sim.System = (*System)(nil)
